"""``--verify-isolation`` — reconcile dynamic writes with the static proof.

Runs a tiny 2-SM smoke simulation (KM workload, base config, 0.1 scale)
with :class:`repro.integrity.isolation.WriteRecorder` instrumentation
and checks that evidence against the effect analysis' classification:

1. **static_missed** — a ``(class, attr)`` written inside some SM's
   ``cycle`` that the static walk never classified. Either the call graph
   has a hole (a callback the analysis could not type) or the write is
   genuinely unreachable in its model; both deserve a look.
2. **illegal_dynamic** — an object written by two or more distinct SMs
   on an attribute whose static classification does not include the
   boundary (and whose class is not boundary-owned). This is the direct
   dynamic witness of a cross-SM race the static analysis should have
   flagged as SL009.
3. **stale_boundary** — instrumented boundary classes that saw no write
   at all during the run phase. Informational: the annotation may be
   stale, or the smoke workload simply never exercised the class.

The check fails (CLI exit 1) on 1 or 2; 3 is reported but allowed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.effects import analyze_project
from repro.analysis.effects.model import (
    CLS_BOUNDARY,
    CLS_SM_PRIVATE,
    OWN_BOUNDARY,
    ProjectEffects,
)
from repro.analysis.effects.report import static_write_index
from repro.analysis.engine import LintResult

#: The smoke point: small enough for CI, busy enough to touch L1/L2/DRAM.
SMOKE_WORKLOAD = "KM"
SMOKE_CONFIG = "base"
SMOKE_SCALE = 0.1
SMOKE_NUM_SMS = 2


def _static_classifications(
    static_index: dict[tuple[str, str], set[str]],
    mro: tuple[str, ...],
    attr: str,
) -> Optional[set[str]]:
    """Union of classifications across the dynamic type's MRO, else None."""
    found: set[str] = set()
    hit = False
    for name in mro:
        classifications = static_index.get((name, attr))
        if classifications is not None:
            hit = True
            found.update(classifications)
    return found if hit else None


def reconcile(
    recorder: Any,
    effects: ProjectEffects,
    instrumented_names: set[str],
) -> dict[str, Any]:
    """Run the three reconciliation checks over a filled WriteRecorder."""
    static_index = static_write_index(effects)
    boundary_classes = {
        name
        for name, cls in effects.classes.items()
        if cls.boundary_reason is not None
    }

    #: class name -> MRO names, from the dynamically observed objects.
    mro_of: dict[str, tuple[str, ...]] = {}
    for mro, _sm_ctxs, _attrs in recorder.objects.values():
        mro_of.setdefault(mro[0], mro)

    # Check 1: every sm-context write location must be statically known.
    static_missed: list[str] = []
    for (cls_name, attr), contexts in recorder.writes.items():
        if not any(ctx.startswith("sm") for ctx in contexts):
            continue
        mro = mro_of.get(cls_name, (cls_name,))
        classifications = _static_classifications(static_index, mro, attr)
        if classifications is None or not (
            classifications & {CLS_SM_PRIVATE, CLS_BOUNDARY}
        ):
            static_missed.append(f"{cls_name}.{attr}")

    # Check 2: multi-SM-written objects must sit behind the boundary.
    illegal_dynamic: list[str] = []
    for mro, sm_ctxs, attrs in recorder.objects.values():
        if len(sm_ctxs) < 2:
            continue
        behind_boundary = any(
            name in boundary_classes
            or effects.ownership.get(name) == OWN_BOUNDARY
            for name in mro
        )
        for attr in attrs:
            classifications = _static_classifications(static_index, mro, attr)
            if behind_boundary or (
                classifications is not None and CLS_BOUNDARY in classifications
            ):
                continue
            illegal_dynamic.append(
                f"{mro[0]}.{attr} written by {', '.join(sorted(sm_ctxs))}"
            )

    # Check 3: boundary classes the run never touched (informational).
    stale_boundary = sorted(
        (boundary_classes & instrumented_names) - recorder.touched_classes
    )

    static_missed = sorted(set(static_missed))
    illegal_dynamic = sorted(set(illegal_dynamic))
    return {
        "ok": not static_missed and not illegal_dynamic,
        "dynamic_writes": recorder.total_writes,
        "dynamic_locations": len(recorder.writes),
        "sm_written_objects": sum(
            1 for _, sm_ctxs, _ in recorder.objects.values() if sm_ctxs
        ),
        "multi_sm_objects": sum(
            1 for _, sm_ctxs, _ in recorder.objects.values() if len(sm_ctxs) >= 2
        ),
        "static_missed": static_missed,
        "illegal_dynamic": illegal_dynamic,
        "stale_boundary": stale_boundary,
    }


def run_isolation_smoke(
    effects: ProjectEffects, num_sms: int = SMOKE_NUM_SMS
) -> dict[str, Any]:
    """Instrument, simulate, reconcile; returns the isolation-check dict."""
    from repro.experiments.configs import CONFIGS, experiment_gpu_config
    from repro.integrity.isolation import CTX_EPOCH, WriteRecorder, hot_simulator_classes
    from repro.sm.pipeline import SMCore
    from repro.sm.simulator import GPUSimulator
    from repro.workloads.suite import workload
    from repro.workloads.synthetic import build_kernel

    recorder = WriteRecorder()
    instrumented = hot_simulator_classes()
    recorder.install(instrumented)
    recorder.wrap_cycle(SMCore)
    try:
        kernel = build_kernel(workload(SMOKE_WORKLOAD), SMOKE_SCALE)
        simulator = GPUSimulator(kernel, experiment_gpu_config(num_sms),
                                 CONFIGS[SMOKE_CONFIG].build)
        recorder.context = CTX_EPOCH
        simulator.run()
    finally:
        recorder.uninstall()

    check = reconcile(
        recorder, effects, {cls.__name__ for cls in instrumented}
    )
    check.update(
        {
            "workload": SMOKE_WORKLOAD,
            "config": SMOKE_CONFIG,
            "scale": SMOKE_SCALE,
            "num_sms": num_sms,
        }
    )
    return check


def verify_isolation(result: LintResult) -> dict[str, Any]:
    """Populate ``result.isolation_check`` from a fresh smoke run."""
    effects = analyze_project(result.project)
    check = run_isolation_smoke(effects)
    result.isolation_check = check
    return check
