"""Runtime write instrumentation behind ``repro lint --verify-isolation``.

The static effect analysis (:mod:`repro.analysis.effects`) *claims* that
every mutable location reachable from ``SMCore.cycle`` is SM-private or
behind a declared boundary class. This module provides the dynamic half
of the proof: a :class:`WriteRecorder` that patches ``__setattr__`` on
the simulator's hot classes (``repro.sm.*``, ``repro.mem.*``,
``repro.stats.counters``) and attributes every attribute write to the
execution context it happened under — ``init`` (simulator construction),
``epoch`` (the serial inter-SM portion of a tick: event drain, telemetry,
integrity) or ``sm<N>`` (inside SM *N*'s ``cycle``).

Event callbacks are the subtle case: an ``_L1FillEvent`` is *created*
inside ``sm<N>`` but *executed* later from the epoch's event drain. Under
a parallel cycle loop it would run on SM *N*'s worker, so the recorder
replays the creation context: instrumented classes that define
``__call__`` re-enter the context they were first written under
(creation-context replay), attributing the fill's writes to the SM that
owns them.

Everything is restored in :meth:`WriteRecorder.uninstall`; the recorder
is strictly a scoped, opt-in diagnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

#: Context label for writes during simulator construction.
CTX_INIT = "init"
#: Context label for the serial portion of a tick (events, telemetry).
CTX_EPOCH = "epoch"


class WriteRecorder:
    """Records ``(class, attr) -> {context}`` plus per-object SM writers."""

    def __init__(self) -> None:
        self.context = CTX_INIT
        #: (class name, attr) -> set of contexts that wrote it.
        self.writes: dict[tuple[str, str], set[str]] = {}
        #: id(obj) -> (mro class names, set of sm contexts, attrs sm-written).
        self.objects: dict[int, tuple[tuple[str, ...], set[str], set[str]]] = {}
        #: id(obj) -> context of the first observed write (creation context).
        self.first_ctx: dict[int, str] = {}
        #: class names that saw at least one non-init write.
        self.touched_classes: set[str] = set()
        self.total_writes = 0
        self._patches: list[tuple[type, str, bool, Any]] = []
        #: Strong refs to every recorded object — ``id()`` keys above are
        #: only unique while the object is alive, so pin them (the smoke
        #: run is small; this is a diagnostic mode, not a hot path).
        self._refs: list[Any] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, obj: Any, attr: str) -> None:
        ctx = self.context
        cls = type(obj)
        self.total_writes += 1
        self.writes.setdefault((cls.__name__, attr), set()).add(ctx)
        key = id(obj)  # simlint: ignore[SL001] — diagnostic identity map, never ordered over
        if key not in self.first_ctx:
            self.first_ctx[key] = ctx
            self._refs.append(obj)
        if ctx != CTX_INIT:
            self.touched_classes.add(cls.__name__)
        if ctx.startswith("sm"):
            entry = self.objects.get(key)
            if entry is None:
                mro = tuple(
                    base.__name__ for base in cls.__mro__ if base is not object
                )
                entry = (mro, set(), set())
                self.objects[key] = entry
            entry[1].add(ctx)
            entry[2].add(attr)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def install(self, classes: Iterable[type]) -> None:
        """Patch ``__setattr__`` (and ``__call__`` replay) on ``classes``.

        Classes are processed bases-first so a subclass that merely
        inherits an already-instrumented ``__setattr__`` is not wrapped a
        second time.
        """
        ordered = sorted(set(classes), key=lambda c: len(c.__mro__))
        for cls in ordered:
            current = getattr(cls, "__setattr__")
            if getattr(current, "_simlint_recorder", None) is self:
                pass  # inherited instrumented setattr covers this class
            else:
                self._patch(cls, "__setattr__", self._make_setattr(current))
            call = cls.__dict__.get("__call__")
            if call is not None and not hasattr(call, "_simlint_recorder"):
                self._patch(cls, "__call__", self._make_call(call))

    def _patch(self, cls: type, name: str, wrapper: Any) -> None:
        had_own = name in cls.__dict__
        original = cls.__dict__.get(name)
        try:
            setattr(cls, name, wrapper)
        except (AttributeError, TypeError):
            return  # immutable type; leave it uninstrumented
        self._patches.append((cls, name, had_own, original))

    def _make_setattr(
        self, original: Callable[[Any, str, Any], None]
    ) -> Callable[[Any, str, Any], None]:
        recorder = self

        def instrumented(obj: Any, attr: str, value: Any) -> None:
            original(obj, attr, value)
            recorder.record(obj, attr)

        instrumented._simlint_recorder = recorder  # type: ignore[attr-defined]
        return instrumented

    def _make_call(self, original: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self

        def replayed(obj: Any, *call_args: Any, **call_kwargs: Any) -> Any:
            # Keying a diagnostic-only identity map, never ordered over.
            created_in = recorder.first_ctx.get(id(obj))  # simlint: ignore[SL001]
            if created_in is None or not created_in.startswith("sm"):
                return original(obj, *call_args, **call_kwargs)
            saved = recorder.context
            recorder.context = created_in
            try:
                return original(obj, *call_args, **call_kwargs)
            finally:
                recorder.context = saved

        replayed._simlint_recorder = recorder  # type: ignore[attr-defined]
        return replayed

    def wrap_cycle(self, sm_class: type) -> None:
        """Patch ``sm_class.cycle`` to enter the per-SM context."""
        recorder = self
        original = sm_class.cycle

        def cycling(sm: Any, now: int) -> bool:
            saved = recorder.context
            recorder.context = f"sm{sm.sm_id}"
            try:
                return bool(original(sm, now))
            finally:
                recorder.context = saved

        cycling._simlint_recorder = recorder  # type: ignore[attr-defined]
        self._patch(sm_class, "cycle", cycling)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        for cls, name, had_own, original in reversed(self._patches):
            if had_own:
                setattr(cls, name, original)
            else:
                try:
                    delattr(cls, name)
                except AttributeError:
                    pass
        self._patches.clear()


def hot_simulator_classes() -> list[type]:
    """Classes whose writes the sanitizer observes: sm/, mem/, stats."""
    import inspect

    import repro.mem.cache
    import repro.mem.coalescer
    import repro.mem.dram
    import repro.mem.l2
    import repro.mem.mshr
    import repro.mem.request
    import repro.mem.subsystem
    import repro.mem.tags
    import repro.mem.victim
    import repro.sm.pipeline
    import repro.sm.warp
    import repro.stats.counters

    modules = [
        repro.sm.pipeline,
        repro.sm.warp,
        repro.mem.cache,
        repro.mem.coalescer,
        repro.mem.dram,
        repro.mem.l2,
        repro.mem.mshr,
        repro.mem.request,
        repro.mem.subsystem,
        repro.mem.tags,
        repro.mem.victim,
        repro.stats.counters,
    ]
    classes: list[type] = []
    for module in modules:
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__:
                classes.append(obj)
    return classes


def sm_context_of(label: str) -> Optional[int]:
    """Parse ``sm<N>`` labels back to the SM index (None for init/epoch)."""
    if label.startswith("sm") and label[2:].isdigit():
        return int(label[2:])
    return None
