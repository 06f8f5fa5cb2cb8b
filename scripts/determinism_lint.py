#!/usr/bin/env python3
"""AST lint for nondeterminism hazards in the simulation stack.

The whole repo rests on bit-for-bit reproducibility (pool==serial,
wheel==heap, elided ticks==per-tick, golden snapshots).  Those guarantees die
quietly when wall-clock time, the process-global RNG, object identities or
hash-ordered set iteration leak into simulation state.  This lint walks the
ASTs under ``src/repro`` and flags the four hazard classes:

``wall-clock``
    ``time.time()``/``monotonic()``/``perf_counter()`` and
    ``datetime.now()``-family calls.  Wall-clock time differs per run;
    simulation code must use ``sim.now``.
``global-rng``
    The process-global random generators: ``random.<fn>()``,
    ``random.Random()`` with no seed, legacy ``numpy.random.<fn>()`` and
    ``numpy.random.default_rng()`` with no seed.  Simulation code must
    draw from :class:`repro.sim.rng.SeedSequenceFactory` streams.
``id-key``
    ``id(x)`` used as a dict key or subscript.  CPython ids are allocation
    addresses: stable within one process, different across processes — a
    table keyed on them silently diverges between the pool and serial paths.
``set-iteration``
    Iterating a set (``for x in s``, comprehensions) where ``s`` is a set
    literal, ``set()``/``frozenset()`` call, set comprehension, or a local
    name bound/annotated as a set.  Small-int sets iterate in hash-bucket
    order, not insertion order; feed that into event scheduling and the
    same-seed guarantee breaks.  Wrap in ``sorted()`` or use an
    insertion-ordered ``dict[K, None]``.

A finding on a line containing ``# det: allow`` is suppressed — use it for
legitimately wall-clock code such as telemetry.

Exit status: 0 when clean, 1 when any finding survives, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, NamedTuple

PRAGMA = "det: allow"

#: Calls that read the wall clock (resolved, fully dotted).
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Calls that draw from a process-global RNG.
GLOBAL_RNG_CALLS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.uniform",
    "random.gauss",
    "random.betavariate",
    "random.expovariate",
    "random.getrandbits",
    "random.seed",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.seed",
}

#: Constructors that are hazards only when called with no seed argument.
UNSEEDED_CTORS = {"random.Random", "numpy.random.default_rng"}

#: Well-known module aliases we normalize before lookup.
MODULE_ALIASES = {"np": "numpy"}


class Finding(NamedTuple):
    path: Path
    lineno: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.code}] {self.message}"


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class HazardVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, source_lines: list[str]):
        self.path = path
        self.lines = source_lines
        self.findings: list[Finding] = []
        #: local alias -> real dotted module ("t" -> "time").
        self.module_aliases: dict[str, str] = dict(MODULE_ALIASES)
        #: from-imported name -> full dotted origin ("time" -> "time.time").
        self.from_imports: dict[str, str] = {}
        #: names bound or annotated as sets anywhere in the module.
        self.set_names: set[str] = set()

    # -- plumbing ------------------------------------------------------
    def _suppressed(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno > len(self.lines):
            return False
        return PRAGMA in self.lines[lineno - 1]

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if not self._suppressed(node):
            self.findings.append(Finding(self.path, node.lineno, code, message))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _resolve(self, node: ast.AST) -> str | None:
        """Fully qualified dotted name of a call target, alias-resolved."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.from_imports:
            return self.from_imports[head] + ("." + rest if rest else "")
        if head in self.module_aliases:
            return self.module_aliases[head] + ("." + rest if rest else "")
        return dotted

    # -- set bindings (module-wide prepass via generic visiting) -------
    def _note_set_binding(self, target: ast.AST, is_set: bool) -> None:
        if is_set and isinstance(target, ast.Name):
            self.set_names.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_set_binding(target, self._is_set_expr(node.value, deep=False))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotated_set = False
        ann = node.annotation
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        if isinstance(ann, ast.Name) and ann.id in ("set", "frozenset"):
            annotated_set = True
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            annotated_set = ann.value.lstrip().startswith(("set[", "set ", "frozenset"))
        value_set = node.value is not None and self._is_set_expr(node.value, deep=False)
        self._note_set_binding(node.target, annotated_set or value_set)
        self.generic_visit(node)

    def _is_set_expr(self, node: ast.AST, deep: bool = True) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if name in ("set", "frozenset"):
                return True
        if deep and isinstance(node, ast.Name):
            return node.id in self.set_names
        return False

    # -- hazards -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved in WALL_CLOCK_CALLS:
            self._report(
                node, "wall-clock",
                f"{resolved}() reads the wall clock; simulation code must "
                f"use sim.now (suppress telemetry with `# {PRAGMA}`)",
            )
        elif resolved in GLOBAL_RNG_CALLS:
            self._report(
                node, "global-rng",
                f"{resolved}() draws from the process-global RNG; use a "
                f"SeedSequenceFactory stream",
            )
        elif resolved in UNSEEDED_CTORS and not node.args and not node.keywords:
            self._report(
                node, "global-rng",
                f"{resolved}() without a seed is entropy-seeded and "
                f"differs per run",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        index = node.slice
        if isinstance(index, ast.Call) and _dotted_name(index.func) == "id":
            self._report(
                node, "id-key",
                "id(...) used as a key: CPython ids differ across processes",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Call) and _dotted_name(key.func) == "id":
                self._report(
                    node, "id-key",
                    "id(...) used as a dict key: CPython ids differ across "
                    "processes",
                )
                break
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._report(
                iter_node, "set-iteration",
                "iterating a set: hash-bucket order is not insertion order; "
                "wrap in sorted() or use an insertion-ordered dict",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for comp in node.generators:
            self._check_iteration(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions


def lint_file(path: Path) -> list[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "syntax", str(exc))]
    visitor = HazardVisitor(path, source.splitlines())
    # Two passes: the first collects imports and set bindings declared
    # anywhere in the module (including after their first use site), the
    # second reports.  The visitor accumulates findings only on the second.
    visitor.visit(tree)
    visitor.findings.clear()
    visitor.visit(tree)
    return visitor.findings


def iter_python_files(targets: Iterable[Path]) -> Iterable[Path]:
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        elif target.suffix == ".py":
            yield target
        else:
            raise SystemExit(f"not a Python file or directory: {target}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Flag nondeterminism hazards in simulation code."
    )
    parser.add_argument(
        "targets",
        nargs="*",
        type=Path,
        default=[Path("src/repro")],
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    findings: list[Finding] = []
    checked = 0
    for path in iter_python_files(args.targets):
        findings.extend(lint_file(path))
        checked += 1
    if checked == 0:
        print("determinism-lint: no Python files found", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    summary = f"determinism-lint: {checked} files, {len(findings)} finding(s)"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
