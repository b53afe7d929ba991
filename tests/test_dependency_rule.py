"""The runtime dependency rule: the package imports the standard library,
numpy and itself, nothing else; and `detect` loads only what it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ausentinel
from ausentinel.cli import main

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ausentinel"}


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(Path(ausentinel.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert foreign == []


def _kind_tests(tree) -> int:
    """Uses of `is_finite_number`, `isinstance(x, bool)` (bool alone or in a
    tuple) and `type(x) is ...` comparisons in a module's syntax tree."""
    count = 0
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) == "is_finite_number":
            count += 1
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            count += any(getattr(k, "id", None) == "bool" for k in kinds)
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and getattr(node.left.func, "id", None) == "type"
              and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
            count += 1
    return count


def test_only_core_decides_the_kind_of_a_json_field():
    # core.check_field is the one checker of a decoded JSON field's kind; a
    # module that tests a kind by hand would let the inputs drift apart again.
    modules = sorted(Path(ausentinel.__file__).parent.rglob("*.py"))
    found = {path.name: _kind_tests(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules if path.name != "core.py"}
    assert {name: n for name, n in found.items() if n} == {}


def _json_load_calls(tree) -> int:
    """Calls of `json.load` in a module's syntax tree."""
    return sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "load"
               and getattr(node.func.value, "id", None) == "json" for node in ast.walk(tree))


def test_only_core_reads_a_json_file():
    # core.read_json is the one reader of a JSON file, so every JSON input
    # refuses a file that does not decode in the same way.
    modules = sorted(Path(ausentinel.__file__).parent.rglob("*.py"))
    found = {path.name: _json_load_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules}
    assert {name: n for name, n in found.items() if n} == {"core.py": 1}


def _json_document_writes(tree) -> int:
    """`with open(...)` blocks that call `canonical_json` and hold no loop:
    each writes one JSON document (a JSONL writer writes in a loop)."""
    count = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.With) and any(
                getattr(getattr(item.context_expr, "func", None), "id", None) == "open"
                for item in node.items)):
            continue
        inner = [n for stmt in node.body for n in ast.walk(stmt)]
        count += (any(getattr(getattr(n, "func", None), "id", None) == "canonical_json"
                      for n in inner)
                  and not any(isinstance(n, (ast.For, ast.While)) for n in inner))
    return count


def test_only_core_writes_a_json_file():
    # core.write_json is the one writer of a JSON document file (model,
    # manifest, report), so every one of them ends as the others do.
    modules = sorted(Path(ausentinel.__file__).parent.rglob("*.py"))
    found = {path.name: _json_document_writes(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules}
    assert {name: n for name, n in found.items() if n} == {"core.py": 1}


# Modules the live `detect` path never runs: hashlib maps OpenSSL's libcrypto
# (about 3.6 MB of RSS), socket serves only --listen, the simulator only
# `simulate` and numpy.random only training. `_POOL` are the stdlib's process
# pools, which nothing loads: `core.map_in_order` forks its workers itself.
_POOL = ("multiprocessing", "concurrent.futures")
_NOT_ON_THE_LIVE_PATH = ("hashlib", "_hashlib", "socket", "ausentinel.simgen", "numpy.random",
                         *_POOL)


def _loaded_after(argv: list[str], modules, preamble: str = "") -> list[str]:
    """Run the CLI on `argv` in a fresh interpreter, which must exit 0, and
    return which of `modules` it loaded. `preamble` runs just before the CLI."""
    code = (
        "import json, sys\n"
        "from ausentinel.cli import main\n"
        f"{preamble}"
        f"rc = main({argv!r})\n"
        f"print(json.dumps([rc, [m for m in {tuple(modules)!r} if m in sys.modules]]))\n"
    )
    src = Path(ausentinel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    rc, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert rc == 0, out.stderr
    return loaded


def test_detect_loads_only_what_it_runs(tmp_path):
    fixtures = Path(__file__).parent / "fixtures" / "live_lock"
    stream = tmp_path / "stream.jsonl"
    lines = (fixtures / "stream.jsonl").read_text(encoding="utf-8").splitlines(True)
    stream.write_text("".join(lines[:41]), encoding="utf-8")  # header and 2 timesteps
    argv = ["detect", "--model", str(fixtures / "model.json"), "--input", str(stream),
            "--out", str(tmp_path / "events.jsonl")]
    assert _loaded_after(argv, _NOT_ON_THE_LIVE_PATH) == []


def test_simulate_never_loads_the_pool(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"participants": 2, "trials_per_participant": 1, "seed": 1,
                                "trial_len_s": 3.0, "errors": [{"error_type": "none"}]}))
    argv = ["simulate", "--spec", str(spec), "--out", str(tmp_path / "corpus")]
    assert _loaded_after(argv, _POOL) == []


def test_evaluate_trains_and_fine_tunes_only_in_its_workers(tmp_path):
    # With 2 CPUs, every fold's training, fine-tuning and detection runs in
    # a worker, however small the corpus, so the parent never loads
    # numpy.random (6 MB of RSS).
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"participants": 2, "trials_per_participant": 2, "seed": 1,
                                "trial_len_s": 9.0,
                                "errors": [{"error_type": "physical",
                                            "perceived_error_start_s": 3.0},
                                           {"error_type": "concept",
                                            "perceived_error_start_s": 4.0}]}))
    corpus = str(tmp_path / "corpus")
    assert main(["simulate", "--spec", str(spec), "--out", corpus]) == 0
    preamble = "from ausentinel import core\ncore.usable_cpus = lambda: 2\n"
    argv = ["evaluate", "--corpus", corpus, "--epochs", "5", "--finetune-per-participant",
            "--finetune-epochs", "5", "--report-json", str(tmp_path / "report.json")]
    # The workers are forked directly, so the parent loads no pool module either.
    assert _loaded_after(argv, ("numpy.random", *_POOL, "socket", "subprocess"), preamble) == []
