import math

import numpy as np
import pytest

from qkdsim.channels import CqEnsemble, QuantumChannel
from qkdsim.states import DensityOperator, pure_state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure(rng, dim):
    return pure_state(random_state_vector(rng, dim))


def ensemble(prior, letters):
    """The ensemble of ``DensityOperator`` letters under ``prior``."""
    return CqEnsemble(prior, [rho.matrix for rho in letters])


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m))


# Three pure letters on two qubits under the identity channel: the adversary's
# marginal letters are mixed, and C1's prior puts no weight on letter 2.
THREE_MIXED = {
    "format": "qkdsim-scenario-v1",
    "name": "three-mixed",
    "key_count": 2,
    "alphabet_size": 3,
    "states": {
        "0": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]],
        "1": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
        "2": [[0, 0], [0.6, 0], [0, 0.8], [0, 0]],
    },
    "channel": {"builtin": "identity"},
    "output_dims": [2, 2],
}

# Four real qubit letters cos(t/2)|0> + sin(t/2)|1>, the last two nearly equal,
# under the identity channel with a trivial adversary: the capacity puts
# weight 1/2 on each of the outer letters and none on the middle two.
FOUR_LETTER = {
    "format": "qkdsim-scenario-v1",
    "name": "four-letter",
    "key_count": 2,
    "alphabet_size": 4,
    "states": {
        str(a): [[math.cos(t / 2), 0], [math.sin(t / 2), 0]]
        for a, t in enumerate((0.453, 1.608, 2.980, 2.986))
    },
    "channel": {"builtin": "identity"},
    "output_dims": [2, 1],
}


def random_channel(rng, in_dim, out_dim, n_kraus=None):
    """Random CPTP map via a Haar-ish isometry sliced into Kraus operators."""
    n_kraus = n_kraus or out_dim
    a = rng.normal(size=(n_kraus * out_dim, in_dim)) + 1j * rng.normal(
        size=(n_kraus * out_dim, in_dim)
    )
    q, r = np.linalg.qr(a)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return QuantumChannel([q[i * out_dim : (i + 1) * out_dim] for i in range(n_kraus)])


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


SPOILS = ("none", "hermitian", "scale", "negative", "nan")


def spoil(m, how):
    """A copy of the Hermitian matrix ``m`` broken one way: ``how`` is one of
    ``SPOILS``: left as it is, made non-Hermitian, scaled by 1.1, given the
    spectrum (1.1, -0.1, 0, ...) on its own eigenbasis, or given a NaN."""
    m = np.array(m, dtype=complex)
    if how == "hermitian":
        m[0, 1] += 1e-3
    elif how == "scale":
        m = 1.1 * m
    elif how == "negative":
        vecs = np.linalg.eigh(m)[1]
        m = (vecs * np.r_[1.1, -0.1, np.zeros(len(m) - 2)]) @ vecs.conj().T
    elif how == "nan":
        m[0, 0] = np.nan
    return m


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def flat(w, *logits):
    """L-BFGS-B's variables for frames ``w`` of any shape: the real and then
    the imaginary parts, then any ``logits``."""
    return np.concatenate([w.real.ravel(), w.imag.ravel(), *logits])


def central_differences(f, x, h=1e-6):
    """Gradient of a scalar function of a real vector by central differences."""
    return np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(x.size)])
