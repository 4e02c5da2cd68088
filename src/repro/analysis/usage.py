"""Usage analysis (§5.1): fields that are set but never used.

"Finding variables that are set using side-effect free expressions, but
never used. This helps to find assignment statements that can be safely
eliminated." The paper's flagship example is java.util.Locale's table
of static variables assigned newly allocated objects that a given
program never reads.

The analysis scans bytecode reads/writes, scoped by visibility (§3.3.1):
a private field is only visible inside its declaring class, so only that
class's code is scanned; package/protected/public fields require the
whole program (we have a single "package"). Static field accesses carry
their declaring class in the bytecode; instance field accesses are
matched by name, which is exact because field shadowing is rejected at
compile time and name collisions across unrelated classes only make the
analysis more conservative.

On top of the field facts sits the analysis half of dead-code removal
(§3.3.2): :func:`dead_allocation_candidates` joins them with indirect
usage, never-loaded locals and write-only arrays over call-graph-
reachable code, under the §5.5 OutOfMemoryError gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.purity import ctor_purity
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod, CompiledProgram
from repro.mjava import ast
from repro.mjava.sema import ClassTable

FieldKey = Tuple[str, str]  # (declaring class, field name)


class FieldUsage:
    """Read/write facts for every field in a program."""

    def __init__(self, program: CompiledProgram, reachable_methods=None) -> None:
        self.program = program
        # Instance-field reads/writes by *name* (declaring class unknown
        # at the access), static ones by exact (class, name).
        self.instance_reads: Dict[str, List[CompiledMethod]] = {}
        self.instance_writes: Dict[str, List[CompiledMethod]] = {}
        self.static_reads: Dict[FieldKey, List[CompiledMethod]] = {}
        self.static_writes: Dict[FieldKey, List[CompiledMethod]] = {}
        methods = (
            list(reachable_methods) if reachable_methods is not None
            else program.all_methods()
        )
        for method in methods:
            if method.is_native:
                continue
            for instr in method.code:
                if instr.op == Op.GETFIELD:
                    self.instance_reads.setdefault(instr.args[0], []).append(method)
                elif instr.op == Op.PUTFIELD:
                    self.instance_writes.setdefault(instr.args[0], []).append(method)
                elif instr.op == Op.GETSTATIC:
                    key = (self._canonical_static(*instr.args), instr.args[1])
                    self.static_reads.setdefault(key, []).append(method)
                elif instr.op == Op.PUTSTATIC:
                    key = (self._canonical_static(*instr.args), instr.args[1])
                    self.static_writes.setdefault(key, []).append(method)

    def _canonical_static(self, class_name: str, field: str) -> str:
        """Resolve a static access to the declaring class."""
        current = class_name
        while current is not None:
            cls = self.program.classes.get(current)
            if cls is None:
                return class_name
            if field in cls.static_descriptors:
                return current
            current = cls.super_name
        return class_name

    # -- queries ------------------------------------------------------------

    def _scope_classes(self, declaring: str, visibility: str) -> Set[str]:
        if visibility == "private":
            return {declaring}
        return set(self.program.classes)

    def is_instance_field_read(self, declaring: str, field: str) -> bool:
        """Is the field read anywhere it is visible? For a private field
        only the declaring class can read it, so reads of a same-named
        field elsewhere do not count."""
        mods = self.program.classes[declaring].field_mods.get(field)
        scope = self._scope_classes(declaring, getattr(mods, "visibility", "package"))
        return any(m.class_name in scope for m in self.instance_reads.get(field, []))

    def written_never_read_statics(self) -> List[FieldKey]:
        """Static fields assigned (e.g. in <clinit>) but never read —
        the Locale pattern; their initializing assignments are dead."""
        out = []
        for name, cls in sorted(self.program.classes.items()):
            for field in cls.static_fields:
                key = (name, field)
                if self.static_writes.get(key) and not self.static_reads.get(key):
                    out.append(key)
        return out

    def written_never_read_instance_fields(self) -> List[FieldKey]:
        """Instance fields written but never read anywhere in scope."""
        out = []
        for name, cls in sorted(self.program.classes.items()):
            for field, declaring in cls.layout.declaring.items():
                if declaring != name:
                    continue  # report at the declaring class only
                if self.instance_writes.get(field) and not self.is_instance_field_read(
                    name, field
                ):
                    out.append((name, field))
        return out


def field_usage(program: CompiledProgram, reachable_methods=None) -> FieldUsage:
    """Run usage analysis; optionally restricted to call-graph-reachable
    methods (§5.4 — "(R)" rows of Table 5)."""
    return FieldUsage(program, reachable_methods)


# -- never-used allocations: the analysis half of §3.3.2 --------------------
#
# "We must guarantee that the constructor is the only code that
# references the object and that the constructor has no influence on
# the rest of the program." The facts below prove which allocating
# stores are removable; the dead-code applier in repro.transform.apply
# rewrites them and the linter's DRAG001 pass reports them.


def field_target_name(expr: ast.Expr) -> Optional[str]:
    """The field an ``f`` or ``this.f`` expression names, else None. A
    bare name may still be a local shadowing the field; callers that
    care check for the shadow."""
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.FieldAccess) and isinstance(expr.target, ast.This):
        return expr.name
    return None


def stmt_signature(stmt: ast.Stmt) -> Tuple[int, int, str]:
    """Position-based statement identity that survives a clone."""
    return (stmt.pos.line, stmt.pos.col, type(stmt).__name__)


class DeadAllocationCandidates:
    """Everything the §3.3.2 analyses prove removable, before any
    rewriting — shared by the dead-code applier and the linter's
    DRAG001 pass."""

    __slots__ = (
        "dead_statics",
        "dead_fields",
        "dead_locals",
        "array_store_sigs",
        "oom_handled",
    )

    def __init__(
        self,
        dead_statics: Set[FieldKey],
        dead_fields: Set[FieldKey],
        dead_locals: Dict[str, Set[str]],
        array_store_sigs: Set[Tuple[str, Tuple]],
        oom_handled: bool,
    ) -> None:
        self.dead_statics = dead_statics  # (declaring class, field)
        self.dead_fields = dead_fields  # (declaring class, field)
        self.dead_locals = dead_locals  # qualified method -> local names
        self.array_store_sigs = array_store_sigs  # (class, stmt signature)
        self.oom_handled = oom_handled


def dead_allocation_candidates(
    program_ast: ast.Program,
    table: ClassTable,
    compiled: CompiledProgram,
    callgraph,
    exceptions,
) -> DeadAllocationCandidates:
    """Run the never-used analyses (usage, indirect usage, never-loaded
    locals, write-only arrays) restricted to call-graph-reachable code,
    with the §5.5 exception gate."""
    from repro.analysis.indirect_usage import indirectly_unused_fields

    reachable = callgraph.reachable_compiled_methods()
    usage = field_usage(compiled, reachable)
    oom_handled = exceptions.program_has_handler_for("OutOfMemoryError")

    dead_statics: Set[FieldKey] = set(usage.written_never_read_statics())
    dead_fields: Set[FieldKey] = set(usage.written_never_read_instance_fields())
    for key in indirectly_unused_fields(compiled, usage):
        cls = compiled.classes.get(key[0])
        if cls is not None and key[1] in cls.static_descriptors:
            dead_statics.add(key)
        else:
            dead_fields.add(key)

    dead_locals = never_loaded_ref_locals(callgraph)
    array_store_sigs: Set[Tuple[str, Tuple]] = (
        set()
        if oom_handled
        else set(write_only_array_stores(program_ast, table, callgraph.reachable))
    )
    return DeadAllocationCandidates(
        dead_statics, dead_fields, dead_locals, array_store_sigs, oom_handled
    )


def is_removal_pure_expr(table: ClassTable, expr: ast.Expr) -> bool:
    """Side-effect-free except allocation; cannot throw anything but
    OutOfMemoryError."""
    if isinstance(expr, (ast.IntLit, ast.CharLit, ast.BoolLit, ast.NullLit, ast.StringLit)):
        return True
    if isinstance(expr, ast.New):
        if not table.has(expr.class_name):
            return False
        if not ctor_purity(table, expr.class_name).pure:
            return False
        return all(is_removal_pure_expr(table, a) for a in expr.args)
    if isinstance(expr, ast.NewArray):
        # A non-constant length could raise IndexOutOfBoundsException,
        # which programs do catch — require a provably non-negative
        # constant length.
        return isinstance(expr.length, ast.IntLit) and expr.length.value >= 0
    if isinstance(expr, ast.Binary) and expr.op == "+":
        # string concatenation of pure parts (allocates only)
        return is_removal_pure_expr(table, expr.left) and is_removal_pure_expr(
            table, expr.right
        )
    return False


def never_loaded_ref_locals(callgraph) -> Dict[str, Set[str]]:
    """Per qualified method: declared ref locals never LOADed.

    A local is removable only if *all* its stores have pure right-hand
    sides — that is checked at rewrite time; here we only demand it is
    never read. Parameters are excluded (callers still pass them)."""
    out: Dict[str, Set[str]] = {}
    for method in callgraph.reachable_compiled_methods():
        if method.is_native or not method.code:
            continue
        loaded = {i.args[0] for i in method.code if i.op == Op.LOAD}
        dead = set()
        first_local = method.param_count + (0 if method.is_static else 1)
        for slot in range(first_local, method.nlocals):
            if (
                slot not in loaded
                and method.slot_types[slot] == "ref"
                and not method.slot_names[slot].startswith("$")
            ):
                dead.add(method.slot_names[slot])
        if dead:
            out[method.qualified_name] = dead
    return out


def _bodies_of(decl: ast.ClassDecl):
    out = [("<init>", ctor.body, [p.name for p in ctor.params]) for ctor in decl.ctors]
    out += [
        (m.name, m.body, [p.name for p in m.params])
        for m in decl.methods
        if m.body is not None
    ]
    return out


def write_only_array_stores(
    program_ast: ast.Program,
    table: ClassTable,
    reachable_keys,
) -> List[Tuple[str, Tuple]]:
    """The raytrace §3.4.2 pattern: a never-read array field whose
    elements are only ever *written* in the constructor with pure
    allocations. Returns (class_name, stmt signature) pairs naming the
    element stores that can be removed.

    Guards: the whole-array allocation must be a constant-length
    ``new T[n]`` preceding the stores (so removal cannot hide an NPE),
    each removed store must use a constant in-bounds index (so removal
    cannot hide an IndexOutOfBoundsException), and every read of the
    field in a call-graph-reachable method must itself be one of those
    stores' bases.
    """
    removals: List[Tuple[str, Tuple]] = []
    for decl in program_ast.classes:
        for field in decl.fields:
            if field.mods.static or not isinstance(field.type, ast.ArrayType):
                continue
            fname = field.name
            disqualified = False
            element_stores: List[Tuple[str, ast.Assign, ast.Index]] = []
            array_length: Optional[int] = None

            for cls in program_ast.classes:
                resolved = table.resolve_field(cls.name, fname)
                if resolved is None or resolved[0].name != decl.name:
                    continue
                for member_name, body, params in _bodies_of(cls):
                    shadowed = fname in params or any(
                        isinstance(n, ast.VarDecl) and n.name == fname
                        for n in body.walk()
                    )

                    def names_field(expr: ast.Expr) -> bool:
                        return field_target_name(expr) == fname and not (
                            shadowed and isinstance(expr, ast.Name)
                        )

                    reachable = (cls.name, member_name) in reachable_keys
                    for node in body.walk():
                        if not isinstance(node, ast.Assign):
                            continue
                        target = node.target
                        if names_field(target):
                            # whole-array allocation with constant length
                            if (
                                member_name == "<init>"
                                and isinstance(node.value, ast.NewArray)
                                and isinstance(node.value.length, ast.IntLit)
                            ):
                                array_length = node.value.length.value
                            continue
                        if isinstance(target, ast.Index) and names_field(target.array):
                            element_stores.append((cls.name, node, target))
                    # Any *other* appearance of the field in a reachable
                    # body is a real read and disqualifies the pattern.
                    if not reachable:
                        continue
                    store_bases = {id(t.array) for _, _, t in element_stores}
                    for node in body.walk():
                        if (
                            names_field(node)
                            and id(node) not in store_bases
                            and not _is_write_target(body, node)
                        ):
                            disqualified = True
                if disqualified:
                    break
            if disqualified or array_length is None:
                continue
            for cls_name, stmt, target in element_stores:
                if (
                    isinstance(target.index, ast.IntLit)
                    and 0 <= target.index.value < array_length
                    and isinstance(stmt.value, ast.New)
                    and is_removal_pure_expr(table, stmt.value)
                ):
                    removals.append((cls_name, stmt_signature(stmt)))
    return removals


def _is_write_target(body: ast.Block, node: ast.Expr) -> bool:
    """Is ``node`` exactly the target of some assignment in the body?"""
    for stmt in body.walk():
        if isinstance(stmt, ast.Assign) and stmt.target is node:
            return True
    return False
