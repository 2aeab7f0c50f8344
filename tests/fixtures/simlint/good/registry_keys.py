"""SL004 known-good twin: every registry key appears once."""


SCHEDULERS = {
    "gto": "GTOScheduler",
    "lrr": "LRRScheduler",
    "twolevel": "TwoLevelScheduler",
}
