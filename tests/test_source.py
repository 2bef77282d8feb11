"""Source-level rules for the package."""

import ast
import collections
import importlib
import inspect
import os
import pathlib
import random
import subprocess
import sys
import types

import tlh
from tlh.algebra import AlgebraElement
from tlh.diagram import generator_U

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tlh"


def test_no_assert_statements_in_src():
    # invariants must keep guarding results under python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []



def test_module_level_caches_are_only_the_known_tables():
    # a module-level cache outlives the call that filled it, so no product or reduction may be memoized, and
    # one keyed on a caller's argument answers before the argument is checked: the one cache is the node
    # names of a frame, a private table whose callers pass checked widths
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    decorated[id(dec.func if isinstance(dec, ast.Call) else dec)] = node.name
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("cache", "lru_cache"):  # a decorator names its function; any other use, its place
                found.add(decorated.get(id(node), f"{path.name}:{getattr(node, 'lineno', '?')}"))
    assert [name for name in sorted(found) if not name.startswith("_")] == []
    assert found == {"_refs"}


def test_every_private_helper_is_named_outside_its_own_definition():
    # a private function, class or method that only its own body names is left over from an inlining
    def named(node) -> collections.Counter:
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((named(tree) for tree in trees), collections.Counter())
    helpers = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert len(helpers) > 30
    assert [node.name for node in helpers if everywhere[node.name] == named(node)[node.name]] == []


def test_only_the_three_trusted_sites_name_the_unchecked_tangle_store():
    # _trusted skips every check, so no input from outside may reach it: only a gluing walk,
    # a decoration split and a checked diagram's form, which build their arrays from checked ones
    def sites(node, scope=()):
        """The enclosing definitions of every name or attribute `_trusted` under node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from sites(child, (*scope, child.name))
                continue
            if getattr(child, "id", getattr(child, "attr", None)) == "_trusted":
                yield ".".join(scope)
            yield from sites(child, scope)

    found = {site for path in sorted(SRC.glob("*.py")) for site in sites(ast.parse(path.read_text(), filename=str(path)))}
    assert found == {"DecoratedTangle.concat", "normal_form", "Diagram.tangle"}


def test_the_export_list_is_the_package_namespace():
    bound = {
        name for name, value in vars(tlh).items()
        if not name.startswith("_") and name != "annotations" and not isinstance(value, types.ModuleType)
    }
    assert len(set(tlh.__all__)) == len(tlh.__all__) and set(tlh.__all__) == bound
    namespace = {}
    exec("from tlh import *", namespace)
    assert all(namespace[name] is getattr(tlh, name) for name in tlh.__all__)
    # helpers deleted for want of a caller stay gone: fib_pair is the one Fibonacci helper,
    # is_zero the one predicate on GoldenScalar, and a half-diagram is written but never read
    assert [name for name in vars(tlh.ring) if name.startswith("fib_")] == ["fib_pair"]
    assert [name for name in dir(tlh.GoldenScalar) if name.startswith("is_")] == ["is_zero"]
    assert [name for name in vars(tlh.cellular) if name.startswith("label_")] == []
    assert not hasattr(tlh.HalfDiagram, "from_json") and hasattr(tlh.HalfDiagram, "to_json")


def test_every_exported_function_rejects_a_wrong_first_argument_with_value_error():
    # the library raises ValueError on a bad argument, never TypeError or AttributeError from deeper down;
    # each entry gives the arguments after the first, and a function exported without one fails here
    half, u1 = tlh.HalfDiagram(3, ((1, 2, 1),)), AlgebraElement.from_diagram(generator_U(1, 3))
    rest = {
        "branching_report": (3,),
        "cell_action_matrix": (tlh.CellLabel("plain", 1),),
        "cell_element": (half, half),
        "combine_cell_terms": ({},),
        "enumerate_diagrams": (),
        "enumerate_half": (1,),
        "evaluate_word": (3,),
        "expand_in_cell_basis": (),
        "factorize": (),
        "fib_pair": (),
        "generator_U": (3,),
        "gram_det": (),
        "gram_matrix": (2,),
        "lambda_poset": (),
        "multiply": (u1,),
        "normal_form": (),
        "positivity_check": (),
        "reduce_tangle": (),
        "semisimplicity_check": (),
        "special_elements": (),
        "tableaux": (2,),
        "verify_associativity": (1,),
        "verify_branching": (),
        "verify_cellular_axioms": (),
        "verify_presentation": (),
    }
    exempt = {"random_tangle": "its rng is duck-typed: any object with the methods of random.Random it calls"}
    functions = {name for name in tlh.__all__ if inspect.isfunction(getattr(tlh, name))}
    assert functions == rest.keys() | exempt.keys()
    escaped = []
    for name, args in rest.items():
        try:
            getattr(tlh, name)("x", *args)
            escaped.append(f"{name}: returned")
        except ValueError:
            pass
        except Exception as exc:
            escaped.append(f"{name}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_every_exported_function_rejects_a_wrong_later_argument_with_value_error():
    # each entry is a valid call; "x" in each later positional place, and as each keyword-only argument,
    # must raise ValueError, and a function exported with a later argument but no entry fails here
    label, u1 = tlh.CellLabel("plain", 1), AlgebraElement.from_diagram(generator_U(1, 3))
    half = tlh.tableaux(label, 2)[0]
    calls = {
        "branching_report": (label, 3),
        "cell_action_matrix": (u1, label),
        "cell_element": (label, half, half),
        "combine_cell_terms": (3, {}),
        "enumerate_half": (3, 1),
        "evaluate_word": (["U1"], 3),
        "generator_U": (1, 3),
        "gram_matrix": (label, 2),
        "multiply": (u1, u1),
        "random_tangle": (random.Random(0), 2, 2, 2, 0),
        "tableaux": (label, 2),
        "verify_associativity": (2, 1),
    }
    functions = [name for name in tlh.__all__ if inspect.isfunction(getattr(tlh, name))]
    signatures = {name: inspect.signature(getattr(tlh, name)) for name in functions}
    assert {name for name, sig in signatures.items() if len(sig.parameters) > 1} == calls.keys()
    escaped = []
    for name, args in calls.items():
        function, params = getattr(tlh, name), signatures[name].parameters.values()
        function(*args)
        assert len(args) == sum(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        trials = [(args[:i] + ("x",) + args[i + 1 :], {}) for i in range(1, len(args))]
        trials += [(args, {p.name: "x"}) for p in params if p.kind is p.KEYWORD_ONLY]
        for trial_args, kwargs in trials:
            try:
                function(*trial_args, **kwargs)
                escaped.append(f"{name}{trial_args[1:]}{kwargs}: returned")
            except ValueError:
                pass
            except Exception as exc:
                escaped.append(f"{name}{trial_args[1:]}{kwargs}: {type(exc).__name__}: {exc}")
    assert escaped == []



def test_every_exported_class_rejects_a_wrongly_typed_argument_with_type_or_value_error():
    # each entry is a valid call; a wrongly typed value in each argument place must build or raise
    # TypeError or ValueError, never AttributeError or worse from deeper down; NodeRef is a plain record
    # and may build, and a class exported without an entry fails here
    half, d = tlh.HalfDiagram(3, ((1, 2, 1),)), generator_U(1, 3)
    calls = {
        "AlgebraElement": (3, {d: 1}),
        "CellLabel": ("plain", 1),
        "DecoratedTangle": (1, 1, frozenset({(tlh.NodeRef("N", 1), tlh.NodeRef("S", 1), 0)}), ()),
        "Diagram": (half, half, True),
        "GoldenScalar": (1, 2),
        "HalfDiagram": (3, ((1, 2, 1),)),
        "LaurentPoly": ({0: 1},),
        "NodeRef": ("N", 1),
        "RingMatrix": ([[1]],),
    }
    classes = {
        name for name in tlh.__all__
        if inspect.isclass(getattr(tlh, name)) and not issubclass(getattr(tlh, name), Exception)
    }
    assert classes == calls.keys()
    escaped = []
    for name, args in calls.items():
        cls = getattr(tlh, name)
        cls(*args)
        assert len(args) == len(inspect.signature(cls).parameters)
        for i in range(len(args)):
            for bad in ("x", 5, 2.5, object(), [(d, 1)], b"x"):
                try:
                    cls(*args[:i], bad, *args[i + 1 :])
                except (TypeError, ValueError):
                    pass
                except Exception as exc:
                    escaped.append(f"{name} argument {i} = {bad!r}: {type(exc).__name__}: {exc}")
    assert escaped == []

def inline_type_checks(tree) -> list:
    """The functions with an `if type(x) is not T:` (or `not in`) that raises ValueError(f"..., got {x!r}").

    A test joined to a range test under one message (`type(m) is not int or m < 1`) is not one of these.
    """
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "_arg":
            continue
        for node in ast.walk(fn):
            test = getattr(node, "test", None) if isinstance(node, ast.If) else None
            if not (
                isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], (ast.IsNot, ast.NotIn))
                and isinstance(test.left, ast.Call) and getattr(test.left.func, "id", None) == "type"
                and len(test.left.args) == 1
            ):
                continue
            value = ast.dump(test.left.args[0])
            for raised in ast.walk(node):
                call = raised.exc if isinstance(raised, ast.Raise) else None
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError" and call.args:
                    parts = call.args[0].values if isinstance(call.args[0], ast.JoinedStr) else []
                    if (
                        len(parts) >= 2 and isinstance(parts[-1], ast.FormattedValue)
                        and parts[-1].conversion == ord("r") and ast.dump(parts[-1].value) == value
                        and isinstance(parts[-2], ast.Constant) and parts[-2].value.endswith(", got ")
                    ):
                        found.append(f"{fn.name}:{node.lineno}")
    return found


def test_every_single_value_type_check_goes_through_the_one_helper():
    # the argument contract (exact type, so an int is never a bool; ValueError "..., got x!r") is stated
    # once, in ring._arg; a check naming several values keeps its own message and stays inline
    definitions = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_arg"
    ]
    assert definitions == ["ring.py:_arg"]
    found = {
        path.name: inline_type_checks(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: sites for name, sites in found.items() if sites} == {}
    put_back = (
        "def lambda_poset(n):\n"
        "    if type(n) is not int:  # no bools\n"
        "        raise ValueError(f\"rank must be an integer, got {n!r}\")\n"
        "def evaluate_word(tokens, m):\n"
        "    if type(tokens) not in (list, tuple):\n"
        "        raise ValueError(f\"evaluate_word needs a list of tokens, got {tokens!r}\")\n"
        "def several(a, b):\n"
        "    if type(a) is not int or type(b) is not int:\n"
        "        raise ValueError(f\"sizes must be integers, got {a!r}, {b!r}\")\n"
    )
    assert inline_type_checks(ast.parse(put_back)) == ["lambda_poset:2", "evaluate_word:5"]


#: The package's modules from the bottom of the stack up.
LAYERS = ("ring", "tangle", "diagram", "algebra", "factor", "cellular", "cli")


def tlh_imports(tree) -> set:
    """The tlh modules that a module's source imports, at any depth, absolutely or relatively."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2] or "tlh" for alias in node.names if alias.name.split(".")[0] == "tlh"}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("tlh", node.module))) if node.level else node.module
            if module == "tlh":
                found |= {alias.name for alias in node.names}
            elif module.startswith("tlh."):
                found.add(module.partition(".")[2])
    return found


def test_every_module_imports_only_the_modules_below_it():
    # imports point down the stack, so a layer can be read, tested and changed without the ones above
    # it; the package's __init__ only gathers the exports
    assert sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__") == sorted(LAYERS)
    upward = [
        f"{name} imports {imported}"
        for i, name in enumerate(LAYERS)
        for imported in sorted(tlh_imports(ast.parse((SRC / f"{name}.py").read_text())))
        if imported not in LAYERS[:i]
    ]
    assert upward == []
    sample = "import tlh.cli\nfrom tlh.ring import _arg\nfrom . import tangle\ndef f():\n    from .algebra import x\n"
    assert tlh_imports(ast.parse(sample)) == {"cli", "ring", "tangle", "algebra"}


def load_benchmark_tracer():
    """perfbench/spans.py as a module, compiled from its text so that nothing is written there."""
    path = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def tlh_bindings() -> dict:
    """(owner, attribute) -> value for every attribute of every tlh module and of its classes."""
    bindings = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tlh" or name.startswith("tlh.")):
            continue
        for attr, value in vars(mod).items():
            bindings[(mod, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                bindings.update(((value, a), v) for a, v in vars(value).items())
    return bindings


def test_the_benchmark_tracer_finds_every_traced_name_and_restores_it():
    # perfbench traces tlh from outside src/: a traced method that is deleted or
    # only inherited, or a function that loses its binding, breaks the benchmark
    spans = load_benchmark_tracer()
    for mod_name, _, _ in spans.TARGETS:
        importlib.import_module(mod_name)
    before = tlh_bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        for mod_name, path, name in spans.TARGETS:
            owner = sys.modules[mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                assert attr in vars(owner), f"{name}: {path} is not defined on the class itself"
            current = vars(owner)[attr]
            assert current.__wrapped__ is before[(owner, attr)], f"{name} is not traced"
        golden = sys.modules["tlh.ring"].GoldenScalar
        assert vars(golden)["__post_init__"].__wrapped__ is before[(golden, "__post_init__")]
        u1 = AlgebraElement.from_diagram(generator_U(1, 3))
        assert (u1 * u1).m == 3
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    assert calls["tangle.DecoratedTangle.concat"] == 1 and calls["diagram.Diagram"] >= 1
    after = tlh_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_the_benchmark_own_tests_pass():
    # perfbench's pins (hand counts, reference digests, exit codes) guard the product path;
    # run them read-only: no pytest cache, no bytecode and no optimization stripping their asserts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONOPTIMIZE", None)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
