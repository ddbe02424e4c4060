"""The exact and noisy targets that the tests and the census share."""
import numpy as np

from tuckersearch.tensor_core import (multilinear_transform, norm_f,
                                      random_point)


def exact_instance(r, d, seed, entropy=11):
    """The unit-norm transform of a random point of rank r and dimension d,
    drawn from the stream of (entropy, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([entropy, seed]))
    p = random_point(r, d, rng)
    T = multilinear_transform(p.S, p.A, p.B, p.C)
    return T / norm_f(T)


def desk_instance(r, d, seed):
    """The exact targets of acceptance criterion 05."""
    return exact_instance(r, d, seed, entropy=505)


def noisy_desk_instance(r, d, seed, noise):
    """A desk target plus Gaussian noise of Frobenius norm `noise`."""
    T = desk_instance(r, d, seed)
    G = np.random.default_rng(seed).standard_normal(T.shape)
    return T + noise * G / norm_f(G)
