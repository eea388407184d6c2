import numpy as np
import pytest
from hypothesis import settings

from textprobe import (
    ClassVocabulary,
    SyntheticSpaceConfig,
    TextDataset,
    synthetic_bundle,
)
from textprobe.data import MODALITY_IMAGE, MODALITY_TEXT

# Property tests draw the same examples on every run and keep no example
# database, so a Tier-1 result never depends on an earlier run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def vocab10():
    return ClassVocabulary(tuple(f"class_{i:02d}" for i in range(10)))


@pytest.fixture(scope="session")
def base_space():
    return SyntheticSpaceConfig(dimension=128, classes=10, sigma_intra=0.1, gap=0.0, seed=0)


@pytest.fixture(scope="session")
def text_bundle_50(base_space):
    return synthetic_bundle(base_space, 50, modality=MODALITY_TEXT)


@pytest.fixture(scope="session")
def image_bundle_200(base_space):
    return synthetic_bundle(base_space, 200, modality=MODALITY_IMAGE)


def dataset_for(bundle, vocab):
    """TextDataset aligned row-for-row with a labeled bundle."""
    return TextDataset(items=[("sample", int(c)) for c in bundle.labels], vocab=vocab)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
