"""Source-layout rules: each manifest section has one owning module, and no module keeps dead imports or exports.

``refnet`` owns ``layers``/``tensors``/``metadata``, ``calibrate`` owns
``quantization``/``compensation`` and ``intengine`` owns ``fusion``; the CLI
and the ablation harness reach a bundle only through those owners, and name
no field of the fused layout (``FusedLayerParams``, ``FusedEntry``).  Every
section but ``metadata`` and ``tensors`` is written and read only through the
record tables of ``refnet.RecordKey``, which no module bypasses with a hand
read of a declared key: the compensation ``config`` goes through
``calibrate.FIT_CONFIG``, and only ``quantization.estimator``, a provenance
record that nothing reads, is still a hand-written ``asdict``.  ``metadata`` is
read under ``reading_section``, its ``seed`` through a ``RecordKey``.  The
tables keep the format tabular: every array is a
blob of its own name, owned by one key, and the layers, quantization,
compensation and fusion records hold only scalars and blob names.  The
package root re-exports only names that the package itself, the benchmark or
the demos use.  Only the CLI reads the process environment.  Every public
function and method of the package has a caller outside the tests, but for a
named few.
"""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from quantcomp.intengine import FusedEntry, FusedLayerParams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quantcomp"
SECTION_ACCESS = re.compile(r'qsec|csec|\["(quantization|compensation|fusion|task|entries|stats|layers)"\]')


@pytest.mark.parametrize("name", ["cli.py", "evalbench.py"])
def test_no_direct_section_access(name):
    hits = [
        f"{name}:{n}: {line.strip()}"
        for n, line in enumerate((SRC / name).read_text().splitlines(), 1)
        if SECTION_ACCESS.search(line)
    ]
    assert hits == []


@pytest.mark.parametrize("name", ["cli.py", "evalbench.py"])
def test_no_fused_field_access(name):
    # the fused layout stays behind intengine; ``kind`` and ``beta_rounding`` are also
    # FusedModel's and argparse's own names
    fields = {f.name for cls in (FusedEntry, FusedLayerParams) for f in dataclasses.fields(cls)}
    fields -= {"kind", "beta_rounding"}
    tree = ast.parse((SRC / name).read_text())
    hits = sorted(
        f"{name}:{n.lineno}: .{n.attr}" for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in fields
    )
    assert hits == []


def _record_keys():
    """Every ``RecordKey`` that a record table of refnet, calibrate or intengine declares, each object once."""
    from quantcomp import calibrate, intengine, refnet

    found = {}
    for module in (refnet, calibrate, intengine):
        for value in vars(module).values():
            for table in value.values() if isinstance(value, dict) else [value]:
                keys = table if isinstance(table, tuple) else (table,)
                found.update((id(k), k) for k in keys if isinstance(k, refnet.RecordKey))
    return list(found.values())


def _declared_record_keys():
    """Every key name that a record table of refnet, calibrate or intengine declares."""
    return {k.key for k in _record_keys()}


def test_every_blob_name_belongs_to_one_key():
    # ModelBundle.derive lets one section's blob replace another's of the same name; only the
    # weight codes are shared on purpose, by the quantization and the fusion records
    owners = {}
    for k in _record_keys():
        if k.form in ("channels", "blob"):
            owners.setdefault(k.blob, []).append(k.key)
    assert "" not in owners
    assert {name: keys for name, keys in owners.items() if len(keys) > 1} == {"layer{i}.wq": ["weight_codes"] * 2}


def _number_lists(node, where):
    """Where under ``node`` (found at ``where``) a JSON list holds a number."""
    if isinstance(node, dict):
        return [hit for key, value in node.items() for hit in _number_lists(value, f"{where}.{key}")]
    if isinstance(node, list):
        here = [where] if any(isinstance(v, (int, float)) for v in node) else []
        return here + [hit for i, value in enumerate(node) for hit in _number_lists(value, f"{where}[{i}]")]
    return []


def test_a_saved_fused_bundle_is_a_manifest_of_scalars_and_one_blob_file(tmp_path):
    from test_calibrate import _conv_gelu_model

    from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
    from quantcomp.refnet import BLOB_FILE, save_bundle

    model, pool = _conv_gelu_model()  # conv -> relu -> conv -> gelu -> avgpool -> flatten -> linear
    path = save_bundle(fuse_model(calibrate_model(model, CalibrationConfig(sample_count=64), pool)), tmp_path / "b")
    assert {p.name for p in path.iterdir()} == {"manifest.json", BLOB_FILE}
    manifest = json.loads((path / "manifest.json").read_text())
    sections = ("layers", "quantization", "compensation", "fusion")
    assert [hit for s in sections for hit in _number_lists(manifest[s], s)] == []


@pytest.mark.parametrize("name", ["refnet.py", "calibrate.py", "intengine.py"])
def test_no_hand_read_of_a_declared_key(name):
    # a record is read through refnet.read_record; ``record["weight_scales"]`` or
    # ``record.get("negative_clamped", 0)`` beside it is a second reader
    keys = _declared_record_keys()
    assert {"weight_scales", "negative_clamped", "weight_bits", "beta_rounding", "z_x", "op_kind", "pad", "bias"} <= keys
    hits = []
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.Subscript):
            named = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get" and node.args:
            named = node.args[0]
        else:
            continue
        if isinstance(named, ast.Constant) and named.value in keys:
            hits.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert hits == []


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_level_imports(path):
    # __init__.py is excluded: its imports are the package's re-exports
    assert _unused_imports(ast.parse((SRC / path).read_text())) == []


def test_unused_import_detector_sees_one():
    tree = ast.parse("import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "c")]


def _environment_reads(tree):
    """Sorted lines where ``tree`` reads the process environment: ``os.environ``, ``os.getenv`` or either imported by name."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in names]
    lines += [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "os" and any(a.name in names for a in n.names)
    ]
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py"))
def test_only_the_cli_reads_the_environment(path):
    # a setting such as the engine's block budget stays a module constant, never an environment knob
    assert _environment_reads(ast.parse((SRC / path).read_text())) == []


def test_environment_read_detector_sees_each_form():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('A')\nx = os.getenv('B')\n")
    assert _environment_reads(tree) == [2, 3, 4]
    assert _environment_reads(ast.parse((SRC / "cli.py").read_text()))  # its output root


def test_cli_main_holds_the_only_except():
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert handlers and all(h in set(ast.walk(main)) for h in handlers)


def _referenced_names(tree):
    """Every identifier a parsed file names: variables, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    exports = [
        (node.module, alias.name)
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    outside = set()
    for path in [*ROOT.glob("bench/**/*.py"), *ROOT.glob("demos/*.py")]:
        outside |= _referenced_names(ast.parse(path.read_text()))
    in_src = {p.stem: _referenced_names(ast.parse(p.read_text())) for p in SRC.glob("*.py") if p.name != "__init__.py"}
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if name not in outside and not any(name in names for stem, names in in_src.items() if stem != module)
    ]
    assert unused == []


# Public functions that only tests call today; ROADMAP item 1 decides whether a run's report calls them or they go
TEST_ONLY = {
    "intengine.decode_multiplier",
    "intengine.beta_rounding_bound",
    "intengine.beta_rounding_deviation",
    "evalbench.figure1b_report",
}


def _public_functions(tree):
    """Names of the public module-level functions and public methods that ``tree`` defines."""
    members = [n for node in tree.body for n in (node.body if isinstance(node, ast.ClassDef) else [node])]
    return [n.name for n in members if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not n.name.startswith("_")]


def _uncalled(modules, callers):
    """``module.name`` of each public function or method of ``modules`` ({stem: tree}) that no name in ``callers`` reaches."""
    return sorted(f"{stem}.{name}" for stem, tree in modules.items() for name in _public_functions(tree) if name not in callers)


def test_every_public_function_has_a_caller_outside_the_tests():
    # by name, as a call, an attribute or an import: src (less the package root's re-exports),
    # bench and demos count as callers, test files do not
    callers = set()
    for path in [*SRC.glob("*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("demos/*.py")]:
        if path != SRC / "__init__.py" and not path.name.startswith("test_"):
            callers |= _referenced_names(ast.parse(path.read_text()))
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert _uncalled(modules, callers) == sorted(TEST_ONLY)


def test_uncalled_detector_sees_one_test_only_function():
    source = "def used():\n    pass\n\ndef unused():\n    pass\n\nclass K:\n    def run(self):\n        pass\n\n    def _own(self):\n        pass\n"
    modules = {"m": ast.parse(source)}
    assert _uncalled(modules, _referenced_names(ast.parse("from m import used\nused()\nK().run()\n"))) == ["m.unused"]
