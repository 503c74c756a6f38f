import numpy as np
import pytest
from hypothesis import settings

from ccm.model import ModelConfig, ToyLM

# every property draws the same examples on every run (derandomize implies no
# example database), so a checkout passes or fails its properties the same way
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


TINY = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64, vocab_size=64,
                   max_layout=512)


@pytest.fixture
def tiny_model64():
    """Small float64 model for oracle-grade comparisons."""
    return ToyLM.init(TINY, seed=7, dtype=np.float64)


@pytest.fixture
def tiny_model32():
    return ToyLM.init(TINY, seed=7, dtype=np.float32)


def random_sample(rng, t, vocab_hi, seg_lens=(2, 6), n_inputs=2, n_outputs=2):
    """A random (segments, inputs, outputs) triple over ids [0, vocab_hi)."""
    segments = [rng.integers(0, vocab_hi, size=int(rng.integers(*seg_lens)))
                for _ in range(t)]
    inputs = rng.integers(0, vocab_hi, size=n_inputs)
    outputs = rng.integers(0, vocab_hi, size=n_outputs)
    return segments, inputs, outputs
