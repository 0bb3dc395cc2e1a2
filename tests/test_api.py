import ast
import importlib
import inspect
from functools import cached_property
from pathlib import Path

import thermoquery

MODULES = ("cli", "detuning", "exactsim", "problems", "query", "readout", "thermal", "verify")

# Names that were removed because only their own tests called them, cli's
# copy of its parser's defaults and its ValueError subclass, and the problem
# records an oracle carried: a query reads only its gaps and beta_M.
REMOVED = {
    "thermal": ("prepare_via_conditional_thermalization", "ConditionalThermalizationTrace", "log1pexp",
                "DJProblem", "BVProblem", "CustomProblem"),
    "problems": ("solve_dj_deterministic_classical", "ClassicalSolveResult", "dj_gap_magnitude"),
    "query": ("temperature_well_defined",),
    "detuning": ("SweepPoint",),
    "readout": ("CrossoverTable",),
    "cli": ("_csv_lone_text", "DEFAULTS", "CliError"),
}
REMOVED_ATTRIBUTES = (
    ("thermal", "BooleanFunctionTable", "value"),
    ("thermal", "ThermalQubit", "excited_population"),
    ("detuning", "DetuningSweep", "points"),
    ("detuning", "DetuningSweep", "curve"),
    ("query", "QueryMask", "from_string"),
    ("problems", "DJInstance", "from_table"),
    ("exactsim", "DiagonalJointState", "machine_energies"),
    ("exactsim", "DiagonalJointState", "level_energies"),
    ("exactsim", "DiagonalJointState", "moved"),
    ("exactsim", "DiagonalJointState", "populations"),
    ("exactsim", "DiagonalJointState", "sums"),
    ("readout", "HypothesisTestReport", "to_dict"),
    ("readout", "DistinguishabilityReport", "to_dict"),
)


def test_public_api_surface():
    """Every name in a module's __all__ resolves, the package re-exports only
    names of its modules' __all__ lists, and no removed name is importable."""
    modules = {name: importlib.import_module(f"thermoquery.{name}") for name in MODULES}
    for name, module in modules.items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"thermoquery.{name}.__all__ names {missing}"

    tree = ast.parse(Path(thermoquery.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in modules
        for alias in node.names:
            assert alias.name in modules[node.module].__all__, f"{node.module}.{alias.name}"
            assert getattr(thermoquery, alias.asname or alias.name) is getattr(modules[node.module], alias.name)

    for name, removed in REMOVED.items():
        for attr in removed:
            assert not hasattr(modules[name], attr), f"thermoquery.{name}.{attr}"
            assert not hasattr(thermoquery, attr), f"thermoquery.{attr}"
    for name, cls, attr in REMOVED_ATTRIBUTES:
        assert not hasattr(getattr(modules[name], cls), attr), f"thermoquery.{name}.{cls}.{attr}"


def test_balanced_enumeration_takes_only_the_size():
    """A prefix of the enumeration is taken with itertools.islice."""
    from thermoquery.problems import enumerate_balanced_functions

    assert list(inspect.signature(enumerate_balanced_functions).parameters) == ["n"]


def test_no_module_imports_a_private_name_of_another():
    """No thermoquery module imports a ``_``-prefixed name from another, nor
    reads one off a thermoquery module it imported (``thermal._check`` after
    ``from . import thermal``); ``__version__`` is the one exception."""
    package = Path(thermoquery.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names a thermoquery module is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("thermoquery")):
                private = [a.name for a in node.names if a.name.startswith("_") and a.name != "__version__"]
                assert not private, f"{path.name} imports {private} from {'.' * node.level}{node.module or ''}"
                modules |= {a.asname or a.name for a in node.names if a.name in MODULES}
            elif isinstance(node, ast.Import):
                modules |= {a.asname or a.name.split(".")[0] for a in node.names if a.name.startswith("thermoquery")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and node.attr != "__version__":
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                assert not (isinstance(root, ast.Name) and root.id in modules), (
                    f"{path.name} reads {ast.unparse(node)}")


def test_exact_simulator_reads_no_analytic_code():
    """exactsim imports only the four value types it is given from the
    package, and reads neither a closed-form log partition function, the
    oracle's gap total nor any function of ``query`` or ``thermal``."""
    package = Path(thermoquery.__file__).parent
    tree = ast.parse((package / "exactsim.py").read_text())
    analytic = {
        node.name
        for module in ("query", "thermal")
        for node in ast.parse((package / f"{module}.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("thermoquery") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("thermoquery")):
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            assert node.attr not in analytic | {"log_partition_function"}, node.attr
            assert not (node.attr == "total" and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "gap_vector"), "gap_vector.total"
        elif isinstance(node, ast.Name):
            assert node.id not in analytic, node.id
    assert imported == {"QueryMask", "ThermalQubit", "ThermalMachineOracle", "BinaryDistribution"}


# Values built once per case or per query, and the truth tables the
# Deutsch-Jozsa enumeration builds by the thousand: slotted, so they hold no dict.
SLOTTED = (
    ("thermal", "ThermalQubit"),
    ("thermal", "GapVector"),
    ("thermal", "BooleanFunctionTable"),
    ("query", "QueryMask"),
    ("query", "QueryOutcome"),
    ("problems", "DJInstance"),
)


def test_per_case_values_are_slotted_and_traced_attributes_kept():
    """The per-case values have __slots__ and no instance dict. The oracle
    keeps its dict, for its cached log Z_f: perfbench's traced mode wraps
    that cached_property, the plain property GapVector.total and the
    classmethod QueryMask.all_ones on their classes."""
    from thermoquery.query import QueryMask
    from thermoquery.thermal import GapVector, ThermalMachineOracle

    for module, name in SLOTTED:
        cls = getattr(importlib.import_module(f"thermoquery.{module}"), name)
        assert "__slots__" in vars(cls), name
        assert not any("__dict__" in vars(base) for base in cls.__mro__), name
    assert "__dict__" in vars(ThermalMachineOracle)
    assert isinstance(vars(ThermalMachineOracle)["log_partition_function"], cached_property)
    assert type(vars(GapVector)["total"]) is property
    assert isinstance(vars(QueryMask)["all_ones"], classmethod)
