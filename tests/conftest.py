import pytest

from stepbcd.core import make_rng

from datagen import make_cluster_dataset


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture
def tiny_data():
    """Separable 3-class dataset in 4 dimensions, 32 samples."""
    return make_cluster_dataset(4, 3, 32, make_rng(99))
