"""The error classes the package exports are the ones it raises."""

import ast
from pathlib import Path

import pytest

import medwave.errors
from medwave.errors import BadValue
from medwave.estimator import EstimatorConfig
from medwave.grid import plan_grid
from medwave.simulate import ErrorDist, SimulationConfig, coupling_check

SRC = Path(__file__).resolve().parents[1] / "src" / "medwave"


def raised_names(tree: ast.AST) -> set:
    """The names a ``raise`` statement in ``tree`` raises: ``raise X``,
    ``raise X(...)`` and ``raise module.X(...)`` give X."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_exported_error_class_is_raised():
    # a class that nothing raises is dead API: callers would catch it, and
    # the CLI would map it to an exit code, for an error that never comes
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= raised_names(ast.parse(path.read_text(encoding="utf-8")))
    exported = [name for name in medwave.errors.__all__
                if name != "MedwaveError"]
    assert exported
    assert [name for name in exported if name not in raised] == []


def simulation(**fields):
    return SimulationConfig(**{"q": 2, "sample_sizes": (4225,),
                               "error_dist": ErrorDist("gaussian"), **fields})


CASES = {
    "EstimatorConfig-j0": lambda: EstimatorConfig(j0=1.5),
    "EstimatorConfig-block_cardinality":
        lambda: EstimatorConfig(block_cardinality=2.5),
    "EstimatorConfig-known_h_inv_sq":
        lambda: EstimatorConfig(known_h_inv_sq="1"),
    "SimulationConfig-q": lambda: simulation(q=2.5),
    "SimulationConfig-replications": lambda: simulation(replications=2.5),
    "SimulationConfig-seed": lambda: simulation(seed=1.5),
    "SimulationConfig-sample_sizes":
        lambda: simulation(sample_sizes=(4225.7,)),
    "plan_grid-n": lambda: plan_grid(4225.9, 2),
    "plan_grid-q": lambda: plan_grid(4225, 2.0),
    "coupling_check-kappa":
        lambda: coupling_check(ErrorDist("gaussian"), 3.0, 10),
    "coupling_check-repetitions":
        lambda: coupling_check(ErrorDist("gaussian"), 3, 10.0),
    "coupling_check-seed":
        lambda: coupling_check(ErrorDist("gaussian"), 3, 10, seed=0.5),
}


@pytest.mark.parametrize("case", CASES)
def test_a_parameter_of_the_wrong_type_raises_bad_value(case):
    # an integer parameter takes what operator.index takes, and a noise
    # level only a real number; anything else is named, not truncated
    name = case.split("-")[1]
    with pytest.raises(BadValue, match=rf"^{name}\b"):
        CASES[case]()
