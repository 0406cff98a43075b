import numpy as np
import pytest
from hypothesis import Phase, settings

from linexsel import analysis

# Hypothesis without shrinking (explain works on the shrunk example): a failing
# property stops at its first counterexample. tests/mutants.py selects it with
# --hypothesis-profile=verdict, since a mutant needs a verdict, not a minimal
# example; the suite itself runs under the default profile.
settings.register_profile(
    "verdict", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)]
)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def poultry_model():
    data = analysis.load_dataset(analysis.bundled_dataset_path(), clean=True)
    return analysis.fit(data)


@pytest.fixture(scope="session")
def poultry_summary(poultry_model):
    from linexsel import ObservationPair, select

    return select(ObservationPair(poultry_model.theta_hat_1, poultry_model.theta_hat_2))
