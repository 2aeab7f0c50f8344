"""Ownership classification and cycle-path reachability for the effect IR.

Stage 2 of the analysis (see :mod:`repro.analysis.effects.model`): builds
class/field type tables from the extracted IR, assigns every project class
an ownership value (``per_sm`` / ``shared`` / ``boundary`` / ``mixed``),
then walks the call graph from the SM cycle roots and classifies every
reachable write as SM-private, boundary, or illegally shared.

Ownership sources, in decreasing strength:

- a ``# simlint: boundary[reason]`` annotation pins a class ``boundary``;
- classes constructed inside a fan-out loop (a ``for`` whose iterable
  mentions ``num_sms``) are ``per_sm``;
- annotated ``__init__`` parameter types at fan-out constructor sites
  join ``per_sm`` when the argument is freshly built per iteration and
  ``shared`` when a pre-existing object is passed in (subclasses follow);
- other constructor sites inherit the constructing class's ownership.

Conflicting sources meet at ``mixed`` and the execution-context tag of the
reaching call-graph node decides each individual write.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.analysis.effects.extract import CONTAINER_ACCESSORS, container_target
from repro.analysis.effects.model import (
    CLS_BOUNDARY,
    CLS_ILLEGAL,
    CLS_SM_PRIVATE,
    OWN_BOUNDARY,
    OWN_MIXED,
    OWN_PER_SM,
    OWN_SHARED,
    OWN_UNKNOWN,
    TAG_BOUNDARY,
    TAG_PRIVATE,
    TAG_SHARED,
    UNTYPED,
    ArgInfo,
    CallSite,
    ClassIR,
    ClassifiedWrite,
    MethodIR,
    ModuleIR,
    Origin,
    ProjectEffects,
    TypeRef,
    UnresolvedCall,
    WriteRec,
)

_MAX_TYPE_DEPTH = 12
_TRACKED_ROOTS = frozenset({"self", "param", "rname", "rmeth", "elem", "super"})

#: Read-only container methods: calling one on an untyped receiver is not
#: worth an "unresolved" report entry — nothing is mutated.
_PURE_READS = frozenset(
    {"get", "keys", "values", "items", "index", "count", "copy", "most_common"}
)


class Analyzer:
    """Resolves the extracted IR into a :class:`ProjectEffects`."""

    def __init__(self, modules: list[ModuleIR]) -> None:
        self.modules = modules
        self.classes: dict[str, ClassIR] = {}
        self.class_module: dict[str, ModuleIR] = {}
        for module in modules:
            for cls in module.classes:
                if cls.name not in self.classes:
                    self.classes[cls.name] = cls
                    self.class_module[cls.name] = module
        self.subclasses: dict[str, set[str]] = {name: set() for name in self.classes}
        for name, cls in self.classes.items():
            for base in cls.bases:
                if base in self.subclasses:
                    self.subclasses[base].add(name)
        self.func_table: dict[tuple[str, str], tuple[ModuleIR, MethodIR]] = {}
        for module in modules:
            key = f"fn:{module.info.display_path}"
            for fname, fir in module.functions.items():
                self.func_table[(key, fname)] = (module, fir)
        self.field_types: dict[tuple[str, str], TypeRef] = {}
        self.param_concrete: dict[tuple[str, str], str] = {}
        self.bindings: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self.own: dict[str, str] = {}
        self.sm_classes: list[str] = []
        self.node_tags: dict[tuple[str, str], set[str]] = {}
        self.writes: list[ClassifiedWrite] = []
        self.global_writes: list[ClassifiedWrite] = []
        self.unresolved: set[UnresolvedCall] = set()

    # ------------------------------------------------------------------
    # Class/method lookup
    # ------------------------------------------------------------------

    def mro(self, name: str) -> list[str]:
        """Project-class linearisation: the class then its bases, DFS."""
        out: list[str] = []
        seen: set[str] = set()

        def visit(current: str) -> None:
            if current in seen or current not in self.classes:
                return
            seen.add(current)
            out.append(current)
            for base in self.classes[current].bases:
                visit(base)

        visit(name)
        return out

    def all_subclasses(self, name: str) -> list[str]:
        out: list[str] = []
        stack = sorted(self.subclasses.get(name, ()))
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            stack.extend(sorted(self.subclasses.get(current, ())))
        return out

    def find_method(self, cls_name: str, method: str) -> Optional[tuple[str, MethodIR]]:
        for candidate in self.mro(cls_name):
            ir = self.classes[candidate].methods.get(method)
            if ir is not None:
                return candidate, ir
        return None

    # ------------------------------------------------------------------
    # Type resolution
    # ------------------------------------------------------------------

    def field_tref(self, cls_name: Optional[str], attr: str) -> TypeRef:
        if cls_name is None or cls_name not in self.classes:
            return UNTYPED
        for candidate in self.mro(cls_name):
            tref = self.field_types.get((candidate, attr))
            if tref is not None and (tref.direct or tref.elem):
                return tref
        found = self.find_method(cls_name, attr)
        if found is not None and found[1].is_property:
            return found[1].return_type
        return UNTYPED

    def method_return(self, base: TypeRef, method: str) -> TypeRef:
        if method in CONTAINER_ACCESSORS and base.elem:
            return TypeRef(direct=base.elem)
        if base.direct is not None:
            found = self.find_method(base.direct, method)
            if found is not None:
                return found[1].return_type
        return UNTYPED

    def resolve_tref(
        self,
        origin: Origin,
        cls: Optional[ClassIR],
        meth: MethodIR,
        depth: int = 0,
    ) -> TypeRef:
        if depth > _MAX_TYPE_DEPTH:
            return UNTYPED
        kind = origin.kind
        tref = UNTYPED
        if kind == "self" and cls is not None:
            tref = TypeRef(direct=cls.name)
        elif kind == "param":
            tref = meth.param_types.get(origin.name, UNTYPED)
            if tref.direct is None or tref.direct not in self.classes:
                owner = cls.name if cls is not None else ""
                inferred = self.param_concrete.get((f"{owner}.{meth.name}", origin.name))
                if inferred:  # "" marks sites that disagreed with no common base
                    tref = TypeRef(direct=inferred)
        elif kind == "super" and cls is not None:
            for base in cls.bases:
                if base in self.classes:
                    tref = TypeRef(direct=base)
                    break
        elif kind == "rname":
            if origin.name in self.classes:
                tref = TypeRef(direct=origin.name)
        elif kind == "rmeth" and origin.base is not None:
            base = self.resolve_tref(origin.base, cls, meth, depth + 1)
            tref = self.method_return(base, origin.name)
        elif kind == "elem" and origin.base is not None:
            base = self.resolve_tref(origin.base, cls, meth, depth + 1)
            tref = TypeRef(direct=base.elem)
        for attr in origin.chain:
            tref = self.field_tref(tref.direct, attr)
            if tref == UNTYPED:
                break
        return tref

    # ------------------------------------------------------------------
    # Table construction (field types, concrete params, bindings)
    # ------------------------------------------------------------------

    def build_tables(self) -> None:
        for name, cls in self.classes.items():
            for attr, tref in cls.ann_fields.items():
                self.field_types[(name, attr)] = tref
            for meth in cls.methods.values():
                for attr, tref in meth.self_ann_fields.items():
                    if tref.direct or tref.elem:
                        self.field_types[(name, attr)] = tref

        for _ in range(8):
            changed = False
            changed |= self._infer_concrete_params()
            changed |= self._infer_field_types()
            if not changed:
                break
        self._build_bindings()

    def _infer_field_types(self) -> bool:
        changed = False
        for name, cls in self.classes.items():
            for meth in cls.methods.values():
                for write in meth.writes:
                    if write.kind != "attr" or write.value is None:
                        continue
                    owner = self.resolve_tref(write.target, cls, meth)
                    if owner.direct is None or owner.direct not in self.classes:
                        continue
                    key = (owner.direct, write.attr)
                    existing = self.field_types.get(key)
                    if existing is not None and (
                        existing.direct in self.classes
                        or existing.elem in self.classes
                    ):
                        continue
                    tref = self.resolve_tref(write.value, cls, meth)
                    if (tref.direct in self.classes or tref.elem in self.classes
                            ) and tref != existing:
                        self.field_types[key] = tref
                        changed = True
        return changed

    def _infer_concrete_params(self) -> bool:
        """Fill parameter types from concrete arguments at constructor sites."""
        changed = False
        for module in self.modules:
            for holder, meth in self._iter_method_contexts(module):
                for site in meth.calls:
                    if site.kind != "name" or site.callee not in self.classes:
                        continue
                    found = self.find_method(site.callee, "__init__")
                    if found is None:
                        continue
                    def_cls, init_ir = found
                    for pname, arg in _map_args(init_ir, site.args):
                        ann = init_ir.param_types.get(pname, UNTYPED)
                        if ann.direct in self.classes:
                            continue
                        tref = self.resolve_tref(arg.origin, holder, meth)
                        if tref.direct in self.classes:
                            key = (f"{def_cls}.__init__", pname)
                            joined = self._join_concrete(
                                self.param_concrete.get(key), tref.direct
                            )
                            if self.param_concrete.get(key) != joined:
                                self.param_concrete[key] = joined
                                changed = True
        return changed

    def _join_concrete(self, old: Optional[str], new: str) -> str:
        """Join two inferred concrete param classes to a common ancestor.

        Different construction sites may pass different implementations
        of one base class; last-writer-wins would silently drop one
        implementation's call graph, so
        disagreeing sites meet at their nearest shared project base class
        instead — virtual dispatch then fans out to every subclass — or at
        ``""`` (ambiguous: treated as untyped) when they share none. The
        join only ever moves up the class lattice, so the fixpoint loop
        in :meth:`build_tables` still converges.
        """
        if old is None or old == new:
            return new
        if old == "":
            return ""
        new_ancestors = set(self.mro(new))
        for candidate in self.mro(old):
            if candidate in new_ancestors:
                return candidate
        return ""

    def _iter_method_contexts(
        self, module: ModuleIR
    ) -> list[tuple[Optional[ClassIR], MethodIR]]:
        out: list[tuple[Optional[ClassIR], MethodIR]] = []
        for cls in module.classes:
            for meth in cls.methods.values():
                out.append((cls, meth))
        for meth in module.functions.values():
            out.append((None, meth))
        return out

    def _build_bindings(self) -> None:
        """Record stored bound methods: ``obj.attr = self.some_method``."""
        for module in self.modules:
            for holder, meth in self._iter_method_contexts(module):
                for write in meth.writes:
                    if write.kind != "attr" or write.value is None:
                        continue
                    value = write.value
                    if not value.chain:
                        continue
                    prefix = replace(value, chain=value.chain[:-1])
                    method_name = value.chain[-1]
                    owner_tref = self.resolve_tref(prefix, holder, meth)
                    if owner_tref.direct is None:
                        continue
                    found = self.find_method(owner_tref.direct, method_name)
                    if found is None or found[1].is_property:
                        continue
                    target_tref = self.resolve_tref(write.target, holder, meth)
                    if target_tref.direct is None:
                        continue
                    self.bindings.setdefault(
                        (target_tref.direct, write.attr), set()
                    ).add((owner_tref.direct, method_name))

    # ------------------------------------------------------------------
    # Ownership fixpoint
    # ------------------------------------------------------------------

    def compute_ownership(self) -> None:
        for name, cls in self.classes.items():
            self.own[name] = (
                OWN_BOUNDARY if cls.boundary_reason is not None else OWN_UNKNOWN
            )
        fanout_targets: set[str] = set()
        for _ in range(16):
            changed = False
            for module in self.modules:
                for cls in module.classes:
                    ctx = self.own.get(cls.name, OWN_UNKNOWN)
                    for meth in cls.methods.values():
                        for site in meth.calls:
                            if site.kind != "name" or site.callee not in self.classes:
                                continue
                            if site.fanout:
                                fanout_targets.add(site.callee)
                                changed |= self._join(site.callee, OWN_PER_SM)
                                changed |= self._fanout_param_rule(site)
                            elif ctx in (OWN_PER_SM, OWN_SHARED, OWN_BOUNDARY):
                                changed |= self._join(site.callee, ctx)
                    for factory in cls.dataclass_factories.values():
                        if factory in self.classes and ctx in (
                            OWN_PER_SM, OWN_SHARED, OWN_BOUNDARY
                        ):
                            changed |= self._join(factory, ctx)
            if not changed:
                break
        self.sm_classes = sorted(
            name for name in fanout_targets
            if self.find_method(name, "cycle") is not None
        )

    def _fanout_param_rule(self, site: CallSite) -> bool:
        changed = False
        found = self.find_method(site.callee, "__init__")
        if found is None:
            return False
        init_ir = found[1]
        for pname, arg in _map_args(init_ir, site.args):
            ann = init_ir.param_types.get(pname, UNTYPED)
            target = ann.direct
            if target not in self.classes:
                target = self.param_concrete.get((f"{site.callee}.__init__", pname))
            if target not in self.classes or target is None:
                continue
            value = OWN_PER_SM if arg.per_sm else OWN_SHARED
            changed |= self._join(target, value)
            for sub in self.all_subclasses(target):
                changed |= self._join(sub, value)
        return changed

    def _join(self, name: str, value: str) -> bool:
        if self.classes[name].boundary_reason is not None:
            return False
        current = self.own.get(name, OWN_UNKNOWN)
        new = value if current == OWN_UNKNOWN else (
            current if current == value else OWN_MIXED
        )
        if new != current:
            self.own[name] = new
            return True
        return False

    # ------------------------------------------------------------------
    # Reachability from the SM cycle roots
    # ------------------------------------------------------------------

    def walk_cycle_graph(self) -> list[tuple[str, str]]:
        roots = [(name, "cycle") for name in self.sm_classes]
        worklist: list[tuple[str, str, str]] = [
            (cls, meth, TAG_PRIVATE) for cls, meth in roots
        ]
        # A callback an SM builds once in ``__init__`` (and hands to the L1
        # and the event queue on every load) runs on the cycle path just
        # like one built per call, so its ``__call__`` is reached too.
        for name in self.sm_classes:
            found = self.find_method(name, "__init__")
            if found is None:
                continue
            for site in found[1].calls:
                if (site.kind == "name" and site.callee in self.classes
                        and self.find_method(site.callee, "__call__") is not None):
                    self._enqueue(worklist, site.callee, "__call__",
                                  self.callee_tag(site.callee, TAG_PRIVATE))
        while worklist:
            cls_name, meth_name, tag = worklist.pop()
            tags = self.node_tags.setdefault((cls_name, meth_name), set())
            if tag in tags:
                continue
            tags.add(tag)
            if cls_name.startswith("fn:"):
                entry = self.func_table.get((cls_name, meth_name))
                if entry is not None:
                    module, fn_ir = entry
                    self._process_node(None, module, fn_ir,
                                       f"{module.info.name}.{meth_name}",
                                       tag, worklist)
                continue
            found = self.find_method(cls_name, meth_name)
            if found is None:
                continue
            _, meth = found
            cls = self.classes[cls_name]
            module = self.class_module[cls_name]
            self._process_node(cls, module, meth,
                               f"{cls_name}.{meth_name}", tag, worklist)
        return roots

    def callee_tag(self, target_cls: str, caller_tag: str) -> str:
        own = self.own.get(target_cls, OWN_UNKNOWN)
        if own == OWN_BOUNDARY:
            return TAG_BOUNDARY
        if own == OWN_PER_SM:
            return TAG_PRIVATE
        if own == OWN_SHARED:
            return TAG_SHARED
        return caller_tag

    def _process_node(
        self,
        cls: Optional[ClassIR],
        module: ModuleIR,
        meth: MethodIR,
        writer: str,
        tag: str,
        worklist: list[tuple[str, str, str]],
    ) -> None:
        display = module.info.display_path

        for write in meth.writes:
            self._classify_write(cls, meth, write, tag, writer, display)
        for gwrite in meth.global_writes:
            target = gwrite.module_hint or module.info.name
            self.global_writes.append(
                ClassifiedWrite(
                    cls=f"<module:{target}>", attr=gwrite.name,
                    classification=CLS_ILLEGAL, kind=gwrite.kind,
                    writer=writer, path=display, lineno=gwrite.lineno,
                    col=gwrite.col, tag=tag,
                    detail=f"module-level `{gwrite.name}` mutated from the cycle path",
                )
            )
        for site in meth.calls:
            self._process_call(cls, module, meth, site, tag, writer, display, worklist)

    def _enqueue(
        self,
        worklist: list[tuple[str, str, str]],
        cls_name: str,
        meth_name: str,
        tag: str,
    ) -> None:
        if tag not in self.node_tags.get((cls_name, meth_name), set()):
            worklist.append((cls_name, meth_name, tag))

    def _enqueue_virtual(
        self,
        worklist: list[tuple[str, str, str]],
        target_cls: str,
        method: str,
        caller_tag: str,
    ) -> None:
        """Edge to ``target_cls.method`` plus every subclass override."""
        if self.find_method(target_cls, method) is not None:
            self._enqueue(worklist, target_cls, method,
                          self.callee_tag(target_cls, caller_tag))
        for sub in self.all_subclasses(target_cls):
            if method in self.classes[sub].methods:
                self._enqueue(worklist, sub, method,
                              self.callee_tag(sub, caller_tag))

    def _construct(
        self,
        worklist: list[tuple[str, str, str]],
        target_cls: str,
        caller_tag: str,
        writer: str,
        display: str,
        lineno: int,
        col: int,
    ) -> None:
        """Constructor edge: ``__init__``, ``__call__`` (event callbacks run
        later with the instance's ownership, not the creator's context) and
        synthesised dataclass field writes."""
        inst_tag = self.callee_tag(target_cls, caller_tag)
        if self.find_method(target_cls, "__init__") is not None:
            self._enqueue(worklist, target_cls, "__init__", inst_tag)
        if self.find_method(target_cls, "__call__") is not None:
            self._enqueue(worklist, target_cls, "__call__", inst_tag)
        cls = self.classes[target_cls]
        if cls.is_dataclass:
            for attr in cls.ann_fields:
                self.writes.append(
                    ClassifiedWrite(
                        cls=target_cls, attr=attr,
                        classification=self._classification(target_cls, inst_tag),
                        kind="ctor", writer=writer, path=display,
                        lineno=lineno, col=col, tag=inst_tag,
                    )
                )

    def _process_call(
        self,
        cls: Optional[ClassIR],
        module: ModuleIR,
        meth: MethodIR,
        site: CallSite,
        tag: str,
        writer: str,
        display: str,
        worklist: list[tuple[str, str, str]],
    ) -> None:
        if site.kind == "name":
            if site.callee in self.classes:
                self._construct(worklist, site.callee, tag, writer, display,
                                site.lineno, site.col)
                return
            target = self._resolve_function(module, site.callee)
            if target is not None:
                self._enqueue(worklist, target[0], target[1], tag)
            elif self._project_import(module, site.callee):
                self.unresolved.add(UnresolvedCall(
                    caller=writer, expr=f"{site.callee}(...)",
                    path=display, lineno=site.lineno,
                ))
            return

        receiver = site.receiver
        if receiver is None:
            return
        tref = self.resolve_tref(receiver, cls, meth)
        target_cls = tref.direct
        method = site.method if site.kind == "method" else "__call__"

        if target_cls is not None and target_cls in self.classes:
            if self.find_method(target_cls, method) is not None:
                self._enqueue_virtual(worklist, target_cls, method, tag)
                return
            bound = self._lookup_binding(target_cls, method)
            if bound:
                for owner_cls, owner_method in sorted(bound):
                    self._enqueue_virtual(worklist, owner_cls, owner_method, tag)
                return
            field = self.field_tref(target_cls, method)
            if (field.direct in self.classes
                    and self.find_method(field.direct or "", "__call__") is not None):
                self._enqueue_virtual(worklist, field.direct or "", "__call__", tag)
                return
            if site.maybe_container:
                self._container_fallback(cls, meth, receiver, site, tag, writer, display)
                return
            if method in _PURE_READS:
                return
            self.unresolved.add(UnresolvedCall(
                caller=writer, expr=f"{receiver.render()}.{method}(...)",
                path=display, lineno=site.lineno,
            ))
            return

        if site.maybe_container:
            self._container_fallback(cls, meth, receiver, site, tag, writer, display)
            return
        if method in _PURE_READS:
            return
        root = _root_kind(receiver)
        if root in _TRACKED_ROOTS:
            self.unresolved.add(UnresolvedCall(
                caller=writer, expr=f"{receiver.render()}.{method}(...)",
                path=display, lineno=site.lineno,
            ))

    def _container_fallback(
        self,
        cls: Optional[ClassIR],
        meth: MethodIR,
        receiver: Origin,
        site: CallSite,
        tag: str,
        writer: str,
        display: str,
    ) -> None:
        resolved = container_target(receiver)
        if resolved is None:
            return
        owner, attr = resolved
        write = WriteRec(owner, attr, "container", site.lineno, site.col)
        self._classify_write(cls, meth, write, tag, writer, display)

    def _lookup_binding(self, target_cls: str, attr: str) -> set[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for candidate in self.mro(target_cls):
            out |= self.bindings.get((candidate, attr), set())
        return out

    def _resolve_function(
        self, module: ModuleIR, name: str
    ) -> Optional[tuple[str, str]]:
        """Resolve a bare-name call to a module-function node key."""
        if name in module.functions:
            return (f"fn:{module.info.display_path}", name)
        hint = module.imported.get(name)
        if hint is not None:
            target_stem = hint[0].rsplit(".", 1)[-1]
            for candidate in self.modules:
                if (candidate.info.name == target_stem
                        and hint[1] in candidate.functions):
                    return (f"fn:{candidate.info.display_path}", hint[1])
        return None

    def _project_import(self, module: ModuleIR, name: str) -> bool:
        hint = module.imported.get(name)
        return hint is not None and (
            hint[0].startswith("repro") or hint[0].startswith(".")
        )

    def _classification(self, target_cls: str, tag: str) -> str:
        own = self.own.get(target_cls, OWN_UNKNOWN)
        if own == OWN_BOUNDARY:
            return CLS_BOUNDARY
        if own == OWN_PER_SM:
            return CLS_SM_PRIVATE
        if own == OWN_SHARED:
            return CLS_BOUNDARY if tag == TAG_BOUNDARY else CLS_ILLEGAL
        if tag == TAG_PRIVATE:
            return CLS_SM_PRIVATE
        if tag == TAG_BOUNDARY:
            return CLS_BOUNDARY
        return CLS_ILLEGAL

    def _classify_write(
        self,
        cls: Optional[ClassIR],
        meth: MethodIR,
        write: WriteRec,
        tag: str,
        writer: str,
        display: str,
    ) -> None:
        tref = self.resolve_tref(write.target, cls, meth)
        target_cls = tref.direct
        attr = write.attr or "<object>"
        if target_cls is None or target_cls not in self.classes:
            # Mutation through an accessor method (``self._set(a)[k] = v``):
            # attribute it to the accessor's class as internal state.
            root = write.target
            while root.kind == "elem" and root.base is not None:
                root = root.base
            if (root.kind == "rmeth" and not root.chain and root.base is not None):
                base_tref = self.resolve_tref(root.base, cls, meth)
                if (base_tref.direct in self.classes
                        and self.find_method(base_tref.direct or "", root.name)):
                    target_cls = base_tref.direct
                    attr = f"<{root.name}()>"
            if target_cls is None or target_cls not in self.classes:
                if _root_kind(write.target) in _TRACKED_ROOTS:
                    suffix = f".{write.attr}" if write.attr else ""
                    self.unresolved.add(UnresolvedCall(
                        caller=writer,
                        expr=f"{write.target.render()}{suffix} <- write",
                        path=display, lineno=write.lineno,
                    ))
                return
        self.writes.append(
            ClassifiedWrite(
                cls=target_cls, attr=attr,
                classification=self._classification(target_cls, tag),
                kind=write.kind, writer=writer, path=display,
                lineno=write.lineno, col=write.col, tag=tag,
            )
        )


def _map_args(
    init_ir: MethodIR, args: tuple[ArgInfo, ...]
) -> list[tuple[str, ArgInfo]]:
    out: list[tuple[str, ArgInfo]] = []
    positional = [a for a in args if not a.keyword]
    for pname, arg in zip(init_ir.params, positional):
        out.append((pname, arg))
    for arg in args:
        if arg.keyword:
            out.append((arg.keyword, arg))
    return out


def _deep_root(origin: Origin) -> Origin:
    current = origin
    while current.base is not None:
        current = current.base
    return current


def _root_kind(origin: Origin) -> str:
    return _deep_root(origin).kind


def analyze_modules(modules: list[ModuleIR]) -> ProjectEffects:
    """Run stages 2+3 of the analysis over extracted module IRs."""
    analyzer = Analyzer(modules)
    analyzer.build_tables()
    analyzer.compute_ownership()
    roots = analyzer.walk_cycle_graph()
    return ProjectEffects(
        modules=modules,
        classes=analyzer.classes,
        subclasses=analyzer.subclasses,
        ownership=analyzer.own,
        field_types=analyzer.field_types,
        sm_classes=analyzer.sm_classes,
        roots=roots,
        node_tags=analyzer.node_tags,
        writes=analyzer.writes,
        global_writes=analyzer.global_writes,
        unresolved=sorted(
            analyzer.unresolved,
            key=lambda u: (u.path, u.lineno, u.caller, u.expr),
        ),
    )
