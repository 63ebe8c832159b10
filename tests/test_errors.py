import inspect
import pickle

import pytest

import proxtune.errors
from proxtune.errors import (
    IllConditionedEtaError,
    InfeasibleInitializationError,
    InvalidDimensionError,
    NoFeasiblePointError,
    NonConvergenceError,
    NumericalInputError,
    PredictionError,
    ProxtuneError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)

EXAMPLES = [
    ProxtuneError("base"),
    ValidationError("bad value"),
    InvalidDimensionError("d must be at least 2"),
    InfeasibleInitializationError("unreachable"),
    NumericalInputError("non-finite iterate"),
    SingularSystemError("solve failed"),
    NonConvergenceError("no fixed point", residual=0.25, iterations=1000),
    IllConditionedEtaError("determinant too small"),
    SimulationError(7, "non-finite batch data"),
    PredictionError(3, "negative orthogonal variance"),
    NoFeasiblePointError("nothing reaches the target", best_floor=1e-3,
                         best_point=(8, 25.0)),
]


def test_examples_cover_every_error_class():
    declared = {cls for cls in vars(proxtune.errors).values()
                if inspect.isclass(cls) and issubclass(cls, ProxtuneError)}
    assert {type(exc) for exc in EXAMPLES} == declared


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip(exc):
    # trial workers hand their errors back to the parent process by pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_tagged_messages():
    assert str(SimulationError(7, "boom")) == "iteration 7: boom"
    assert SimulationError(7, "boom").iteration == 7
    assert str(PredictionError(3, "boom")) == "step 3: boom"
    assert PredictionError(3, "boom").step == 3
