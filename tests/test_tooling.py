import argparse
import ast
import importlib
import json
import os
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_tier1_workflow_parses():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    job = doc["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
    runs = [step.get("run", "") for step in job["steps"]]
    assert any('pip install -e ".[test]"' in r for r in runs)
    assert any("python -m pytest -q --continue-on-collection-errors" in r for r in runs)


def test_tier1_workflow_runs_the_perf_smoke():
    """Each workload's traced pass runs in CI and must end with correct output."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = [r for r in runs if "perfbench/run.py" in r]
    assert len(smoke) == 1
    for workload in ("homology-exact", "collapse-certify", "cover-nerve"):
        assert workload in smoke[0]
    assert "--seed 1 --seconds 1 --trace 1" in smoke[0]
    assert '["correct"] is True' in smoke[0]
    assert '["hook_errors"] == 0' in smoke[0]
    assert '["missing_functions"]' in smoke[0]


# the functions that left the library; the tracer still lists them
GONE = [
    "homology.rank_fraction_free",
    "homology.betti_numbers_oracle",
    "cylinders.underline_preimage",
    "cylinders.overline_image",
    "collapse.staged_union_collapse",
    "complexes.SimplicialComplex.full_subcomplex",
    "covers.reduced_nerve_complex",
    "homology.betti_numbers_gf2",
]


@pytest.mark.parametrize(
    "correct, hook_errors, missing, exit_code",
    [
        pytest.param(True, 0, GONE, 0, id="True-0-0"),
        pytest.param(True, 1, GONE, 1, id="True-1-1"),
        pytest.param(False, 0, GONE, 1, id="False-0-1"),
        pytest.param(False, 2, GONE, 1, id="False-2-1"),
        pytest.param(True, 0, [], 0, id="nothing-missing"),
        pytest.param(True, 0, GONE + ["posets.build_poset"], 1, id="traced-function-missing"),
    ],
)
def test_perf_smoke_check_fails_on_wrong_output_or_hook_errors(
    tmp_path, correct, hook_errors, missing, exit_code
):
    """The smoke's check reads the traced report (first, indented JSON
    document) and the result line (last line) that perfbench/run.py prints.
    A listed function the tracer could not find, beyond the oracles that
    left the library, fails it too: a rename would stop its counts."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = next(r for r in runs if "perfbench/run.py" in r)
    check = next(line for line in smoke.splitlines() if "python3 -c" in line)
    code = shlex.split(check)[-1]
    report = {
        "workload": "w",
        "hook_errors": hook_errors,
        "missing_functions": missing,
        "functions": {},
    }
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1}
    text = json.dumps(report, indent=1) + "\n" + json.dumps(result) + "\n"
    (tmp_path / "smoke.out").write_text(text)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, timeout=60)
    assert run.returncode == exit_code


@pytest.mark.parametrize("correct, exit_code", [(True, 0), (False, 1)])
def test_perf_smoke_runs_each_workload_untraced_too(tmp_path, correct, exit_code):
    """After each traced pass, the smoke runs the workload untraced, the
    path the benchmark times, and its check fails unless the result line
    says the outputs were correct."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    lines = next(r for r in runs if "perfbench/run.py" in r).splitlines()
    untraced = next(i for i, line in enumerate(lines) if "--seed 1 --seconds 1 --trace 0" in line)
    assert untraced > next(i for i, line in enumerate(lines) if "--trace 1" in line)
    assert "python3 -c" in lines[untraced + 1]
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1}
    (tmp_path / "smoke.out").write_text("{}\n" + json.dumps(result) + "\n")
    code = shlex.split(lines[untraced + 1])[-1]
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, timeout=60)
    assert run.returncode == exit_code


def test_perf_smoke_forgives_exactly_the_functions_that_left():
    """The smoke's allow-list of untraced functions (the set literal in its
    check) is GONE: an extra entry there would let a rename zero its counts
    with no failure."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = next(r for r in runs if "perfbench/run.py" in r)
    check = next(line for line in smoke.splitlines() if "python3 -c" in line)
    sets = [n for n in ast.walk(ast.parse(shlex.split(check)[-1])) if isinstance(n, ast.Set)]
    assert len(sets) == 1
    allowed = ast.literal_eval(sets[0])
    assert allowed == set(GONE) and len(GONE) == len(set(GONE))


def _tracer_layers() -> dict:
    """LAYERS of perfbench/tracer.py, read from its source without running
    the tracer."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["LAYERS"]
    )
    return ast.literal_eval(node.value)


def test_tracer_finds_every_listed_function():
    """Each LAYERS entry resolves by the tracer's own rule: the name in
    finspace.<layer>, or the method on its class there.  A rename fails
    here, naming the entry, instead of silently zeroing its counts."""
    untraced = []
    for layer, names in _tracer_layers().items():
        module = importlib.import_module(f"finspace.{layer}")
        for qual in names:
            owner, _, attr = qual.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or vars(holder).get(attr) is None:
                untraced.append(f"{layer}.{qual}")
    missing = sorted(set(untraced) - set(GONE))
    assert not missing, f"untraced LAYERS entries: {missing}"


def test_every_export_resolves_once():
    """Each name in finspace.__all__ is bound on the package and listed
    once, so deleting a function cannot leave a dangling export."""
    finspace = importlib.import_module("finspace")
    names = finspace.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(finspace, n)] == []


def test_tier1_workflow_runs_the_full_suite_after_the_tests():
    """The end-to-end suite runs in full mode; a failed check exits non-zero."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    tier1 = next(i for i, r in enumerate(runs) if "python -m pytest" in r)
    suite = [i for i, r in enumerate(runs) if "finspace suite --mode full" in r]
    assert len(suite) == 1 and suite[0] > tier1


def _readme_flavor_table() -> dict:
    """flavor -> (cover kind, mode, nerve object), from the README's table
    of nerve-theorem flavors."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| flavor | cover kind | mode | nerve object |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        flavor, kind, mode, nerve_object = (cell.strip() for cell in line.strip("|").split("|"))
        table[flavor.strip("`")] = (kind, mode, nerve_object)
    return table


def test_flavors_agree_across_readme_library_and_parser():
    """The README lists covers.FLAVORS, rows in order, and `verify` offers
    exactly those flavors plus the three other checks."""
    flavors = importlib.import_module("finspace.covers").FLAVORS
    assert list(_readme_flavor_table().items()) == list(flavors.items())
    parser = importlib.import_module("finspace.cli").build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    choices = next(a.choices for a in verify._actions if a.dest == "flavor")
    assert choices == list(flavors) + ["truncation", "replay-complex", "replay-space"]


def test_every_flavor_names_one_cover_kind_and_no_two_are_aliases():
    """Each nerve-theorem flavor applies to complex covers or to poset
    covers, and no two flavors share a cover kind, a verdict mode and a
    nerve object."""
    flavors = importlib.import_module("finspace.covers").FLAVORS
    assert {kind for kind, _, _ in flavors.values()} == {"complex", "poset"}
    assert len(set(flavors.values())) == len(flavors)


def _readme_block(heading: str, fence: str) -> str:
    """The first fenced block of the given language after a README line."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    after = text[text.index(heading):]
    start = after.index(f"```{fence}\n") + len(fence) + 4
    return after[start:after.index("```", start)]


def test_readme_library_example_prints_what_it_says(capsys):
    """Each print of the README's library example writes the line its
    trailing comment gives (the part before any " - " remark)."""
    code = _readme_block("## Library example", "python")
    expected = [
        line.split("#", 1)[1].split(" - ")[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected == ["yes 5", "[(3, None)]"]


def test_readme_file_formats_read_and_write_back():
    """The complete examples under "File formats" (poset, complex,
    certificate) are read by the library and written back as they are."""
    from finspace.collapse import CollapseCertificate
    from finspace.complexes import SimplicialComplex
    from finspace.posets import FinitePoset

    examples, name = {}, None
    for line in _readme_block("File formats:", "jsonc").splitlines():
        if line.startswith("// "):
            name = line[3:].split(" (")[0]
            examples[name] = ""
        else:
            examples[name] += line
    readers = {"poset": FinitePoset, "complex": SimplicialComplex, "certificate": CollapseCertificate}
    assert set(readers) < set(examples)
    for name, reader in readers.items():
        assert reader.from_json(examples[name]).to_doc() == json.loads(examples[name])


def _json_round_trips(path: str) -> list:
    """The lines of a module that read a document back from text it just
    wrote: ``X.from_json(json.dumps(...))`` or ``json.loads(x.to_json())``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())

    def is_call(node, attr, owner=None):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and (owner is None or isinstance(node.func.value, ast.Name) and node.func.value.id == owner)
        )

    def round_trip(node):
        if is_call(node, "from_json") and node.args:
            return is_call(node.args[0], "dumps", "json")
        if is_call(node, "loads", "json") and node.args:
            return is_call(node.args[0], "to_json")
        return False

    return sorted(node.lineno for node in ast.walk(tree) if round_trip(node))


def test_the_library_reads_no_document_back_from_its_own_text():
    """Each document type reads and writes its document with from_doc and
    to_doc; going through JSON text between two of the library's own calls
    would bring back a second reader of the format."""
    package = os.path.join(ROOT, "src", "finspace")
    found = {
        name: lines
        for name in sorted(os.listdir(package))
        if name.endswith(".py") and (lines := _json_round_trips(os.path.join(package, name)))
    }
    assert found == {}


def _none_ids(path: str) -> list:
    """The lines of a module that test ``ids is None`` or give a parameter
    named ids a None default."""
    with open(path) as fh:
        tree = ast.parse(fh.read())

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name):
            if node.left.id == "ids" and any(
                isinstance(op, (ast.Is, ast.IsNot)) and is_none(right)
                for op, right in zip(node.ops, node.comparators)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            pairs = list(zip(positional[len(positional) - len(node.defaults):], node.defaults))
            pairs += [(a, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d is not None]
            lines += [d.lineno for a, d in pairs if a.arg == "ids" and is_none(d)]
    return sorted(lines)


def test_the_free_face_layer_has_one_form_for_the_whole_index():
    """The free-face functions take their ids as a sequence only; the whole
    index is ``range(len(index.simplices))``, never a None standing for it."""
    assert _none_ids(os.path.join(ROOT, "src", "finspace", "collapse.py")) == []


def _defined_and_referenced(path: str) -> tuple[set, set]:
    """The function names a module defines, and every name or attribute it
    references."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    referenced |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    referenced |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return defined, referenced


def test_the_library_has_one_triviality_rule():
    """A subspace's triviality follows from its collapse verdict by one
    rule, ``collapse._triviality``, and a subcomplex's by
    ``_after_complex_collapse``, which only ``collapse.py`` reads: covers
    and cylinders ask that module for both verdicts."""
    package = os.path.join(ROOT, "src", "finspace")
    defines, reads = set(), set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            defined, referenced = _defined_and_referenced(os.path.join(package, name))
            if "_after_collapse" in defined:
                defines.add(name)
            if "_after_complex_collapse" in referenced:
                reads.add(name)
    assert defines == set()
    assert reads == {"collapse.py"}


def _constructing(path: str, callee: str) -> set[str]:
    """The qualified names of the functions and methods of a module that
    call callee, by its name or as an attribute of a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                    found.add(scope or "<module>")
            visit(child, inner)

    visit(tree, "")
    return found


def test_free_face_steps_are_built_on_first_read_only():
    """A search's certificate builds its ``FreeFacePair`` steps when they
    are first read, in ``CollapseCertificate.steps``; only a certificate
    read from a document builds them at once.  No other library code
    constructs one, so no eager second path builds steps nobody reads."""
    package = os.path.join(ROOT, "src", "finspace")
    builders = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            if found := _constructing(os.path.join(package, name), "FreeFacePair"):
                builders[name] = found
    assert builders == {
        "collapse.py": {"CollapseCertificate.steps", "CollapseCertificate.from_doc"}
    }


def test_point_removal_steps_are_built_on_first_read_only():
    """Point-removal searches and the cylinder executor hand their
    certificates (position, kind) pairs; the ``PointRemoval`` steps are
    built when first read, in ``CollapseCertificate.steps``, or at once
    from a document, and nowhere else in the library."""
    package = os.path.join(ROOT, "src", "finspace")
    builders = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            if found := _constructing(os.path.join(package, name), "PointRemoval"):
                builders[name] = found
    assert builders == {
        "collapse.py": {"CollapseCertificate.steps", "CollapseCertificate.from_doc"}
    }


def _reading(path: str, attribute: str) -> set[str]:
    """The qualified names of the functions and methods of a module that
    read the attribute of some object."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == attribute:
                found.add(scope or "<module>")
            visit(child, inner)

    visit(tree, "")
    return found


def test_replay_reads_steps_only_on_the_names_route():
    """Replay asks a certificate for positions over its target; only the
    names route, taken for a certificate not made on that target, reads
    its steps.  The other readers are equality, hashing, repr and the
    document."""
    readers = _reading(os.path.join(ROOT, "src", "finspace", "collapse.py"), "steps")
    assert not {name for name in readers if "replay" in name}
    assert readers == {
        "CollapseCertificate.__eq__",
        "CollapseCertificate.__hash__",
        "CollapseCertificate.__repr__",
        "CollapseCertificate.to_doc",
        "_pair_ids_by_name",
        "_removals_by_name",
    }


# public functions and methods that no code of the package calls, each kept
# for the one reason given; every other public one has a caller
KEEP = {
    "collapse.shadow_report": "acceptance criterion 4 and the README's dunce-hat example use it",
    "collapse.weak_point_kind": "the weak-point test of the paper's collapses of finite spaces",
    "collapse.is_homotopically_trivial_poset": "the paper's homotopical triviality of a finite space",
    "collapse.is_homotopically_trivial_complex": "the paper's homotopical triviality of a complex",
    "complexes.SimplicialComplex.num_simplices": "the tests size complexes with it",
    "complexes.SimplicialComplex.without": "the oracles in tests/helpers.py remove simplices with it",
    "complexes.simplex_boundary": "the boundary of a simplex, a sphere the test families are built on",
    "complexes.solid_simplex": "the simplex, a ball the test families are built on",
    "covers.Cover.subunion": "the paper's sub-union K_J",
    "covers.Cover.intersection_is_empty": "whether U_J is empty, the test that defines the nerve",
    "covers.containing_intersections": "the paper's I_x",
    "covers.chains_containing": "the paper's S_sigma",
    "cylinders.Relation.image": "the image of a point, whose closure is the paper's hypothesis set",
    "cylinders.Relation.preimage": "the preimage of U_y, whose open hull is the paper's hypothesis set",
    "cylinders.multiple_mapping_cylinder": "the paper's multiple mapping cylinder",
    "errors.Document.from_json": "the README's file-format examples are read with it",
    "homology.boundary_matrices": "the acceptance suite calls it",
    "homology.HomologyResult.unreduced_betti0": "the README gives it next to the reduced convention",
    "posets.FinitePoset.covers_below": "the oracles in tests/helpers.py are written with it",
    "posets.FinitePoset.up_set": "the paper's F_x",
    "posets.FinitePoset.open_hull": "the open hull of the paper's hypothesis sets",
    "posets.FinitePoset.closure": "the closure of the paper's hypothesis sets",
    "posets.FinitePoset.has_maximum": "the acceptance suite and the oracles in tests/helpers.py use it",
    "posets.FinitePoset.has_minimum": "the oracles in tests/helpers.py are written with it",
    "posets.FinitePoset.opposite": "the opposite of the non-Hausdorff nerve, which the paper's main claim reads",
    "posets.FinitePoset.linear_extension": "the oracles in tests/helpers.py are written with it",
    "posets.antichain": "acceptance criterion 8 uses it",
}


def _uncalled_public_functions() -> set[str]:
    """The public functions of src/finspace and the public methods of its
    classes ("module.function", "module.Class.method") that no code of the
    package names outside their own body.  The re-exports of __init__.py
    are no callers."""
    package = os.path.join(ROOT, "src", "finspace")
    defined, references = [], []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        module = name[:-3]

        def visit(node, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                    outer = not scope or isinstance(node, ast.ClassDef) and "." not in scope
                    if isinstance(child, ast.FunctionDef) and outer and not child.name.startswith("_"):
                        defined.append((module, inner, child.name))
                elif isinstance(child, ast.Name):
                    references.append((module, scope, child.id))
                elif isinstance(child, ast.Attribute):
                    references.append((module, scope, child.attr))
                visit(child, inner)

        with open(os.path.join(package, name)) as fh:
            visit(ast.parse(fh.read()), "")

    def called(module: str, qual: str, attr: str) -> bool:
        return any(
            name == attr and not (m == module and (s == qual or s.startswith(qual + ".")))
            for m, s, name in references
        )

    return {f"{m}.{q}" for m, q, attr in defined if not called(m, q, attr)}


def test_every_public_function_has_a_caller_or_a_reason_to_stay():
    """A public function or method stays only if the package calls it or
    KEEP gives its reason: the CLI, the suite, the acceptance suite, a
    README example, the paper or the test oracles.  KEEP lists only names
    that exist and have no caller."""
    uncalled = _uncalled_public_functions()
    assert sorted(uncalled - set(KEEP)) == []
    assert sorted(set(KEEP) - uncalled) == []
