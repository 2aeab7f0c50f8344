"""SL004 known-bad: a registry literal that repeats a key."""


SCHEDULERS = {
    "gto": "GTOScheduler",
    "lrr": "LRRScheduler",
    "gto": "TwoLevelScheduler",  # noqa: F601  finding: repeats 'gto'
}
