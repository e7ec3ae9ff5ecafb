"""Reachability rule (ROADMAP item 3c): every module under ``src/``
is reachable from the CLI, the trace analyzer, an example or a
benchmark — code that only its own unit test imports is a liability.

The walk is pure ``ast`` (it imports and executes nothing).  A package
``__init__`` is a namespace, not an edge: ``from repro.fed import
Photon`` reaches the module that *defines* ``Photon``, not everything
``repro/fed/__init__.py`` happens to re-export.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.obs.analyze")
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/**/*.py")])


def path_of(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py")
                 if p.is_file()), None)


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def source_of(node: ast.ImportFrom, module: str, path: Path) -> str:
    """Absolute name of the module an ``ImportFrom`` reads."""
    if not node.level:
        return node.module
    package = module.split(".")
    package = package[:len(package) - node.level + (path.name == "__init__.py")]
    return ".".join(package + ([node.module] if node.module else []))


def reexports(module: str) -> dict[str, tuple[str, str]]:
    """Top-level names ``module`` takes from elsewhere, as ``(source
    module, source name)``: from-imports and plain ``A = B`` aliases."""
    path, names = path_of(module), {}
    for node in parse(path).body:
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                names[a.asname or a.name] = (source_of(node, module, path), a.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            names.update({t.id: (module, node.value.id) for t in node.targets})
    return names


def origin(module: str, name: str) -> str:
    """The module ``from <module> import <name>`` really reaches: a
    submodule, or — through a package's re-exports — the definer."""
    if path_of(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = path_of(module)
    if path is None or path.name != "__init__.py" or name not in reexports(module):
        return module
    return origin(*reexports(module)[name])


def imports(path: Path, module: str):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = source_of(node, module, path)
            if source.split(".")[0] == "repro" and path_of(source) is not None:
                yield from (origin(source, a.name) for a in node.names)


def test_every_module_is_reachable():
    frontier = list(ENTRY_MODULES)
    for script in SCRIPTS:  # also proves every example/benchmark parses
        frontier.extend(imports(script, ""))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        path = path_of(module) if module.split(".")[0] == "repro" else None
        if path is None or module in reached:
            continue
        reached.add(module)
        if path.name != "__init__.py":  # a package is a namespace, not an edge
            frontier.extend(imports(path, module))
    modules = {".".join(p.relative_to(SRC).with_suffix("").parts)
               for p in SRC.rglob("*.py") if p.name != "__init__.py"}
    orphans = sorted(modules - reached)
    assert not orphans, (
        f"reachable only from their own tests — wire in or delete: {orphans}")


def test_every_exported_name_resolves():
    for init in SRC.rglob("__init__.py"):
        package = importlib.import_module(".".join(init.parent.relative_to(SRC).parts))
        missing = [n for n in getattr(package, "__all__", []) if not hasattr(package, n)]
        assert not missing, f"{package.__name__}.__all__ names unbound {missing}"


#: Definitions the name sweep finds unreferenced that stay on purpose,
#: as ``{qualname: reason}``.  Only two reasons earn an entry: a test
#: reads the definition as its oracle, or it is a counter that says a
#: fast path fell back.  An entry the sweep no longer reports fails.
ALLOWED = {
    # tests/test_hierarchy.py's shadow codec replays what the far end
    # decodes; test_compress and test_properties round-trip through it.
    "repro.compress.codec.Codec.roundtrip": "test oracle",
    # ROADMAP 10(c): lanes_rewalked / cache_switches say whether the
    # lane walk or the lazy windows fell back.
    "repro.data.synthetic.MarkovSource.walk_stats": "fallback counter",
    # tests/test_data.py checks the Pile's client partition through it.
    "repro.data.synthetic.SyntheticPile.client_sources": "test oracle",
    # test_lora_inference and test_serving assert personalization gains.
    "repro.fed.continual.PersonalizationResult.improvement": "test oracle",
    # test_lora_inference counts LoRA's trainable parameters with it;
    # test_nn checks ModelConfig.n_params against it.
    "repro.nn.module.Module.num_parameters": "test oracle",
    # tests/test_kernels.py checks clip_grad_norm's fused norm against it.
    "repro.optim.clip.global_grad_norm": "test oracle",
    # The linear step of test_parallel's DDP/FSDP equivalence checks.
    "repro.optim.optimizers.SGD": "test oracle",
    # test_parallel's shard-balance check reads each worker's shard.
    "repro.parallel.fsdp.FSDPEngine.worker_param_count": "test oracle",
    # test_parallel's smaller GPU when it checks batch size against VRAM.
    "repro.parallel.hardware.A100_40GB": "test oracle",
    # test_serving checks that a finished replay leaves nothing pinned.
    "repro.serve.cache.AdapterCache.pinned": "test oracle",
    # test_serving checks slot occupancy through admission and drain.
    "repro.serve.engine.MultiAdapterEngine.active": "test oracle",
}


def _all_node(tree: ast.Module) -> ast.Assign | None:
    return next((node for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                None)


def definitions(path: Path, module: str):
    """``(qualname, name, node)`` of each top-level def or class, each
    public method, and each top-level constant ``__all__`` names."""
    tree = parse(path)
    node_all = _all_node(tree)
    public = set(ast.literal_eval(node_all.value)) if node_all else set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("_")):
                    yield f"{module}.{node.name}.{method.name}", method.name, method
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and target.id in public:
                    yield f"{module}.{target.id}", target.id, node


def references(path: Path):
    """``(name, line)`` of every name the file's code uses: ``Name`` ids,
    ``Attribute`` attrs, import aliases, and string constants that are
    exactly one identifier (``getattr(ops, "softmax")``), outside its
    ``__all__``.  Docstrings and comments are not references."""
    tree = parse(path)
    node_all = _all_node(tree)
    skip = set(map(id, ast.walk(node_all))) if node_all else set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreferenced(root: Path) -> set[str]:
    """Qualnames of the definitions under ``root/src`` that no code in
    ``src/``, ``examples/`` or ``benchmarks/`` names outside the
    definition itself.  A package ``__init__`` is a namespace: its
    re-exports are not references.  Tests do not count."""
    src = root / "src"
    modules = {p: ".".join(p.relative_to(src).with_suffix("").parts)
               for p in sorted(src.rglob("*.py")) if p.name != "__init__.py"}
    scripts = [p for p in [*root.glob("examples/*.py"), *root.glob("benchmarks/**/*.py")]
               if "tests" not in p.relative_to(root).parts]
    sites: dict[str, list[tuple[Path, int]]] = {}
    for path in [*modules, *scripts]:
        for name, line in references(path):
            sites.setdefault(name, []).append((path, line))
    return {qualname for path, module in modules.items()
            for qualname, name, node in definitions(path, module)
            if all(site == path and node.lineno <= line <= node.end_lineno
                   for site, line in sites.get(name, ()))}


def surface_report(root: Path, allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """(unreferenced definitions not allowed, allowed ones now referenced
    or gone)."""
    dead = unreferenced(root)
    return sorted(dead - set(allowed)), sorted(set(allowed) - dead)


def test_every_definition_is_referenced():
    """The name-level rule: each definition in ``src/`` is named by the
    code a user reaches — ``src/``, an example or a benchmark — or is
    in :data:`ALLOWED`.  A name reached only through a string that is
    not exactly an identifier counts as unreferenced, so check a new
    hit by hand before deleting it."""
    unreached, stale = surface_report(ROOT, ALLOWED)
    assert not unreached, f"reachable only from tests — wire in or delete: {unreached}"
    assert not stale, f"stale ALLOWED entries — remove them: {stale}"


def test_sweep_reports_a_planted_def_and_a_stale_entry(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import planted, Box\n")
    (package / "mod.py").write_text(
        '__all__ = ["planted", "Box", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def planted():\n    return planted\n"
        "class Box:\n"
        "    def open(self):\n        return LIMIT\n"
        "    def by_name(self):\n        pass\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import Box\n"
        "getattr(Box(), 'by_name')()\n"
        "Box().open()\n")
    unreached, stale = surface_report(tmp_path, {"pkg.mod.Box.open": "stale"})
    assert unreached == ["pkg.mod.planted"]
    assert stale == ["pkg.mod.Box.open"]


#: ``FedConfig`` fields the field sweep finds unset that stay on purpose,
#: as ``{field: reason}``.  An entry the sweep no longer reports fails.
ALLOWED_FIELDS: dict[str, str] = {}

#: The modules that pass every field through generically: they set a
#: field whenever anything sets it, so they say nothing.
GENERIC = ("config.py", "cli.py")


def unset_fields(root: Path, flags: dict[str, str | None]) -> set[str]:
    """The names in ``flags`` (field -> ``repro train`` option, or None)
    that no code in ``src/`` (except :data:`GENERIC`), ``examples/`` or
    ``benchmarks/`` sets.  A keyword argument of the field's name sets
    it unless its value reads the attribute of the same name (that only
    passes a value through); so does a dict-literal key of that name or
    a string constant equal to its option.  Tests do not count."""
    paths = [p for p in (root / "src").rglob("*.py") if p.name not in GENERIC]
    paths += [p for p in [*root.glob("examples/*.py"), *root.glob("benchmarks/**/*.py")]
              if "tests" not in p.relative_to(root).parts]
    options = {option: name for name, option in flags.items() if option}
    reached = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.keyword) and node.arg in flags:
                if getattr(node.value, "attr", None) != node.arg:
                    reached.add(node.arg)
            elif isinstance(node, ast.Dict):
                reached.update(k.value for k in node.keys
                               if isinstance(k, ast.Constant) and k.value in flags)
            elif isinstance(node, ast.Constant) and node.value in options:
                reached.add(options[node.value])
    return set(flags) - reached


def test_every_config_field_is_set():
    """The field-level rule: each :class:`FedConfig` field is set by the
    code a user reaches, or is in :data:`ALLOWED_FIELDS`.  A field that
    only tests set is one more axis of every config lattice for nothing:
    delete it, and keep the feature on the component that still has a
    caller."""
    from repro.config import FedConfig

    flags = {f.name: f.metadata["flag"] and f.metadata["flag"].split()[0]
             for f in dataclasses.fields(FedConfig)}
    unset = unset_fields(ROOT, flags)
    unreached, stale = sorted(unset - set(ALLOWED_FIELDS)), sorted(set(ALLOWED_FIELDS) - unset)
    assert not unreached, f"set only by tests — delete or wire in: {unreached}"
    assert not stale, f"stale ALLOWED_FIELDS entries — remove them: {stale}"


def test_field_sweep_reports_an_unset_and_a_passed_through_field(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    # The generic layer names every field; it sets none of them.
    (package / "cli.py").write_text(
        "def build(args):\n"
        "    return dict(planted=args.planted, by_key=0, by_flag='--by-flag')\n")
    (package / "engine.py").write_text(
        "def make(cfg, Engine):\n    return Engine(passed=cfg.passed)\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "cfg = Config(by_kwarg=2)\n"
        "overrides = {'by_key': 3}\n"
        "argv = ['train', '--by-flag', '4']\n")
    flags = {"planted": "--planted", "passed": None, "by_kwarg": None,
             "by_key": "--by-key", "by_flag": "--by-flag"}
    assert unset_fields(tmp_path, flags) == {"planted", "passed"}


def test_one_tree_serializer():
    """Bytes <-> state tree is ``utils/serialization.py``'s job alone: a
    fourth serializer (npz, an in-memory file) cannot quietly return."""
    for path in SRC.rglob("*.py"):
        hits = [w for w in ("savez", "np.load(", "BytesIO") if w in path.read_text()]
        assert not hits, f"{path.relative_to(ROOT)} brings back {hits}"


def test_one_client_control_plane():
    """Selection, ranking, the factor gather and the client lease each
    have one definition: a second scheduler, wall-time model or client
    registry cannot quietly return beside the first."""
    owners: dict[str, list[str]] = {}
    for path in SRC.rglob("*.py"):
        for cls in ast.walk(parse(path)):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        owners.setdefault(node.name, []).append(cls.name)
    forked = {name: owners.get(name, [])
              for name in ("select_async", "select_cohort", "_rank",
                           "_factor_arrays", "lease")
              if len(owners.get(name, [])) != 1}
    assert not forked, f"each has exactly one home, but: {forked}"


def construction_sites(*classes: str) -> set[str]:
    """Modules under ``src/`` that call one of ``classes``."""
    return {str(path.relative_to(SRC / "repro"))
            for path in SRC.rglob("*.py")
            for node in ast.walk(parse(path))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in classes}


def test_one_run_assembly():
    """``Photon`` is the one place a run is put together: a baseline
    (DiLoCo is a ``FedConfig`` preset) cannot quietly grow a second
    place that assembles clients and an engine beside it."""
    assert construction_sites("SyncAggregator", "AsyncAggregator",
                              "Aggregator") == {"fed/photon.py"}


def test_one_checkpoint_writer():
    """The engine checkpoints one way, the run state: only
    ``RunStateCheckpointer`` builds the rotating writer under it."""
    assert construction_sites("CheckpointManager") == {"fed/runstate.py"}


def test_one_training_decoder_and_one_incremental():
    """A decoder forward is where attention is called from.  The shared
    attention forward has two call sites — its autograd binding
    (``ops.causal_attention``, itself called only by
    ``CausalSelfAttention`` under ``DecoderLM``) and the incremental
    decoder's ``_step``: a third forward — the stacked plane once
    carried its own — cannot reappear unnoticed."""
    callers: dict[str, list[str]] = {"causal_attention": [], "attention_forward": []}
    for path in SRC.rglob("*.py"):
        for scope in ast.walk(parse(path)):
            if isinstance(scope, ast.FunctionDef):
                for node in ast.walk(scope):
                    name = isinstance(node, ast.Call) and getattr(
                        node.func, "attr", getattr(node.func, "id", None))
                    if name in callers:
                        callers[name].append(
                            f"{path.relative_to(SRC)}:{scope.name}")
    assert {name: sorted(sites) for name, sites in callers.items()} == {
        "causal_attention": ["repro/nn/attention.py:forward"],
        "attention_forward": ["repro/nn/inference.py:_step",
                              "repro/tensor/ops.py:causal_attention"]}


def test_the_model_layer_holds_no_arithmetic_of_its_own():
    """Softmax, log-softmax and sampling under ``nn/`` go through
    ``tensor/kernels.py``: an inline ``np.exp(`` is how a second
    definition starts."""
    hits = [str(path.relative_to(SRC)) for path in (SRC / "repro/nn").rglob("*.py")
            if "np.exp(" in path.read_text()]
    assert not hits, f"np.exp( under nn/ — call the kernel instead: {hits}"


def test_every_bound_backward_is_a_named_kernel():
    """Each ``Tensor._make`` in ``tensor/ops.py`` and in ``Tensor.gelu``
    hands the graph a closure whose body calls ``kernels.<op>_backward``:
    a backward pass that exists only as an anonymous closure is one no
    profiler, test or ledger span can name.  (``dropout`` is one mask,
    not a kernel.)"""
    tensor = SRC / "repro/tensor"
    gelu = next(n for n in ast.walk(parse(tensor / "autograd.py"))
                if isinstance(n, ast.FunctionDef) and n.name == "gelu")
    bindings = [gelu] + [
        n for n in parse(tensor / "ops.py").body
        if isinstance(n, ast.FunctionDef) and n.name != "dropout" and any(
            isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "_make"
            for c in ast.walk(n))]
    assert len(bindings) >= 8
    anonymous = []
    for binding in bindings:
        closures = [n for n in binding.body
                    if isinstance(n, ast.FunctionDef) and n.name == "backward"]
        named = [c.func.attr for closure in closures for c in ast.walk(closure)
                 if isinstance(c, ast.Call)
                 and getattr(c.func, "attr", "").endswith("_backward")
                 and getattr(c.func.value, "id", None) == "kernels"]
        if len(closures) != 1 or len(named) != 1:
            anonymous.append(binding.name)
    assert not anonymous, f"backward is not one kernels.*_backward call: {anonymous}"
