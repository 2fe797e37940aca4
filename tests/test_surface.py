"""Every definition in ``src/sharpcheck`` is reachable from what runs.

The roots are ``cli.main``, the catalog runners, the code each module runs
at import, every name read by ``tests/test_acceptance.py``,
``perfbench/*.py`` and ``tools/*.py`` (identifiers and dotted names in
string constants included, since ``perfbench/spans.py`` wraps functions by
name), and the definitions kept for an open ROADMAP item.  A definition is
a top-level function or class, or a method of a class; it is reached when
a reached body names it (``name`` or ``obj.name``; ``np.name`` and other
attributes of modules from outside the package do not count).  Matching
is by name alone, so a definition is kept by any use of its name: the check
finds surface that nothing but unit tests reads, not every dead path.

Likewise every field of a dataclass or ``NamedTuple`` in ``src/sharpcheck``
is read as an attribute (``obj.field`` in load context, matched by name) in
``src/sharpcheck`` or a root file, string constants of the root files
included, unless it is kept for an open ROADMAP item; and so is every name a
plain class-body assignment binds in any class (``du = property(...)``).
Matching by name lets such an attribute pass when another class has a read
field of that name, as a property ``du`` on one class would pass by
``ManufacturedFunction``'s callback field ``du``.

And every defaulted parameter of a public function or method in
``src/sharpcheck`` is passed, by keyword or by position, in some call in
``src/sharpcheck`` or a root file (calls matched by name), unless it is
kept for an open ROADMAP item: a default nothing overrides is an option
nothing selects.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sharpcheck"
ROOT_FILES = [ROOT / "tests" / "test_acceptance.py",
              *sorted((ROOT / "perfbench").glob("*.py")),
              *sorted((ROOT / "tools").glob("*.py"))]

# Kept with no caller yet, each for the ROADMAP item that will call it.
ALLOWED = {
    "calculus.homogenized_model",           # item 3: x-dependent (VMO) operators
}

# Record fields kept with no reader yet, each for the ROADMAP item that will
# read it.
ALLOWED_FIELDS = {
    "calculus.ThetaResult.per_direction",   # item 3: theta of the VMO operators
    "calculus.ThetaResult.n_nodes",         # item 3
    "calculus.ThetaResult.taus",            # item 3
}


def _external_modules(tree) -> set[str]:
    """Names bound to modules from outside the package (``np``, ``math``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not node.module.startswith("sharpcheck"):
            out.update(a.asname or a.name for a in node.names)
    return out


def _names(nodes, external: set[str], strings: bool = False) -> set[str]:
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in external):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                out.update(node.value.split("."))
    return out


def _definitions():
    """``{qualified name: (name, body names, class or None)}`` and the names
    read by each module's import-time code."""
    defs, import_time = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        external = _external_modules(tree)
        mod = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                import_time |= _names([node], external)
                continue
            # decorators and default values run at import
            import_time |= _names(node.decorator_list, external)
            if isinstance(node, ast.FunctionDef):
                import_time |= _names(node.args.defaults + node.args.kw_defaults, external)
                defs[f"{mod}.{node.name}"] = (node.name, _names(node.body, external), None)
                continue
            own = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
            defs[f"{mod}.{node.name}"] = (node.name, _names(own + node.bases, external), None)
            for meth in node.body:
                if isinstance(meth, ast.FunctionDef):
                    import_time |= _names(meth.decorator_list, external)
                    defs[f"{mod}.{node.name}.{meth.name}"] = (
                        meth.name, _names(meth.body + meth.args.defaults, external),
                        f"{mod}.{node.name}")
    return defs, import_time


def _runners() -> set[str]:
    tree = ast.parse((SRC / "harness" / "catalog.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
                    for d in node.decorator_list)}


def unreachable(kept: set[str] = ALLOWED) -> list[str]:
    """Definitions not reached from the roots, ``kept`` among them."""
    defs, reached = _definitions()
    reached |= {"main"} | _runners()
    for path in ROOT_FILES:
        tree = ast.parse(path.read_text())
        reached |= _names([tree], _external_modules(tree), strings=True)
    live = set(kept)
    for qual in kept:
        reached |= defs[qual][1]
    grew = True
    while grew:
        grew = False
        for qual, (name, body, cls) in defs.items():
            dunder = name.startswith("__") and name.endswith("__")
            if qual in live or (cls is not None and cls not in live):
                continue
            if name in reached or (cls is not None and dunder):
                live.add(qual)
                reached |= body
                grew = True
    return sorted(q for q, (_, _, cls) in defs.items()
                  if q not in live and (cls is None or cls in live))


def test_every_definition_is_reachable():
    dead = unreachable()
    assert dead == [], "reached only by unit tests: " + ", ".join(dead)


def test_allowed_definitions_exist_and_have_no_caller():
    # an allowed definition that gains a caller, or goes, leaves the list
    assert ALLOWED <= set(unreachable(kept=set()))


def _is_record(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators) \
        or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)


def _attribute_reads(tree, strings: bool = False) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            out.update(node.value.split("."))
    return out


def _bound(node: ast.ClassDef, attributes: bool) -> list[str]:
    """The record fields of ``node`` or, with ``attributes``, the names its
    plain class-body assignments bind."""
    if attributes:
        targets = [t for s in node.body if isinstance(s, ast.Assign) for t in s.targets]
    else:
        targets = [s.target for s in node.body
                   if isinstance(s, ast.AnnAssign) and _is_record(node)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_fields(kept: set[str] = ALLOWED_FIELDS, attributes: bool = False) -> list[str]:
    """Record fields (with ``attributes``, names bound by plain class-body
    assignments) whose name no attribute read of ``src`` or a root file
    names, ``kept`` left out."""
    fields, reads = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        mod = ".".join(path.relative_to(SRC).with_suffix("").parts)
        reads |= _attribute_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields.update((f"{mod}.{node.name}.{name}", name)
                              for name in _bound(node, attributes))
    for path in ROOT_FILES:
        reads |= _attribute_reads(ast.parse(path.read_text()), strings=True)
    return sorted(q for q, name in fields.items() if name not in reads and q not in kept)


def test_every_record_field_is_read():
    unread = unread_fields()
    assert unread == [], "fields no code reads: " + ", ".join(unread)


def test_every_class_attribute_is_read():
    unread = unread_fields(attributes=True)
    assert unread == [], "class attributes no code reads: " + ", ".join(unread)


def test_allowed_fields_exist_and_are_unread():
    # an allowed field that gains a reader, or goes, leaves the list
    assert ALLOWED_FIELDS <= set(unread_fields(kept=set()))


# Parameter defaults no call in ``src`` or a root file overrides, each kept
# for the ROADMAP item that will pass it.
ALLOWED_DEFAULTS = {
    "calculus.oscillation_theta.shape",         # item 3: theta over cylinders
    "calculus.oscillation_theta.tau0",          # item 3
    "weights.weighted_norm.w",                  # item 4: weighted entries
    "weights.cube_family.n_sizes",              # item 4
    "weights.cube_family.anchors_per_axis",     # item 4
    "weights.ap_divergence_ladder.base_side",   # item 4
    "weights.ap_divergence_ladder.n_steps",     # item 4
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(name, positional index)`` of each parameter of ``fn`` with a default
    (index ``None`` for keyword-only); a method's index counts from the
    argument after ``self``."""
    a = fn.args
    out = [(arg.arg, i - method) for i, arg in enumerate(a.args)
           if i >= len(a.args) - len(a.defaults)]
    return out + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def unoverridden_defaults(kept: set[str] = ALLOWED_DEFAULTS) -> list[str]:
    """Defaulted parameters of public functions and methods in ``src`` that
    no call names by keyword or reaches by position (calls matched by the
    function's name alone), ``kept`` left out."""
    params, keywords, positions = {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        mod = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, node.name, False)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                fns = [(m, f"{node.name}.{m.name}", True) for m in node.body
                       if isinstance(m, ast.FunctionDef)]
            else:
                fns = []
            for fn, qual, method in fns:
                if not fn.name.startswith("_"):
                    params.update({f"{mod}.{qual}.{name}": (fn.name, name, i)
                                   for name, i in _defaulted(fn, method)})
    for path in [*sorted(SRC.rglob("*.py")), *ROOT_FILES]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords |= {(fn, k.arg) for k in node.keywords}
                positions |= {(fn, i) for i in range(len(node.args))}
    return sorted(q for q, (fn, name, i) in params.items()
                  if (fn, name) not in keywords and (fn, i) not in positions and q not in kept)


def test_every_parameter_default_is_overridden():
    # a default no caller overrides is an option nothing selects; an allowed
    # default that gains a caller, or goes, leaves the list
    unused = unoverridden_defaults()
    assert unused == [], "defaults no call overrides: " + ", ".join(unused)
    assert ALLOWED_DEFAULTS <= set(unoverridden_defaults(kept=set()))
