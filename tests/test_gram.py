from fractions import Fraction

import numpy as np
import pytest

from ccrlab.gram import equilibrated, gram_signature, numerical_rank, real_or_complex


def test_signature_counts_sum_to_dimension():
    entries = np.diag([3.0, -1.0, 0.0, 2.0]).astype(complex)
    signature, eigenvalues = gram_signature(entries)
    assert signature == (2, 1, 1)
    assert sum(signature) == entries.shape[0]
    assert eigenvalues.shape == (4,)


def test_signature_is_judged_on_the_equilibrated_gram():
    # equilibrated, diag(1e9, 1e-3) is the identity: 1e-3 is no longer below 1e-9 * radius
    signature, eigenvalues = gram_signature(np.diag([1e9, 1e-3]).astype(complex))
    assert signature == (2, 0, 0) and np.allclose(eigenvalues, 1.0, rtol=1e-15, atol=0.0)
    # a singular Gram stays singular under any diagonal scaling (Sylvester's law of inertia)
    for d in ([1.0, 1.0], [1e6, 1e-6], [1e-6, 1e6], [3.0, 1e-150]):
        d = np.array(d)
        assert gram_signature(d[:, None] * np.ones((2, 2)) * d)[0] == (1, 0, 1), d


def test_equilibrated_rows_peak_at_one_and_zero_rows_stay_zero():
    gram = np.array([[4e12, 2e3, 0.0], [2e3, 1e-6, 0.0], [0.0, 0.0, 0.0]])
    scaled = equilibrated(gram)
    assert np.allclose(np.abs(scaled).max(axis=1)[:2], 1.0, rtol=1e-3, atol=0.0)
    assert np.array_equal(scaled[2], np.zeros(3)) and np.array_equal(scaled[:, 2], np.zeros(3))
    assert np.array_equal(equilibrated(np.eye(3)), np.eye(3))


def test_rejects_non_hermitian():
    entries = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        gram_signature(entries)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13])
def test_hermiticity_is_judged_relative_to_the_gram_at_every_scale(c):
    # the same defect relative to max|G| is refused in any unit: a small Gram is checked too
    with pytest.raises(ValueError, match="not Hermitian"):
        gram_signature(c * np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_zero_and_empty_grams_pass_the_hermiticity_check():
    assert gram_signature(np.zeros((3, 3)))[0] == (0, 0, 3)
    assert gram_signature(np.zeros((0, 0)))[0] == (0, 0, 0)


def test_empty_matrix():
    signature, eigenvalues = gram_signature(np.zeros((0, 0), dtype=complex))
    assert signature == (0, 0, 0)
    assert eigenvalues.size == 0
    rank, singular = numerical_rank(np.zeros((0, 0)))
    assert rank == 0 and singular.size == 0


def test_numerical_rank():
    vec = np.array([[1.0], [2.0], [3.0]])
    rank, singular = numerical_rank(vec @ vec.T)
    assert rank == 1
    assert singular[1] / singular[0] < 1e-12


def test_one_dtype_rule_for_signature_and_rank(monkeypatch):
    # bool, int and float (float32 too) stay real; complex and objects such as Fractions go complex
    svd, eigvalsh, seen = np.linalg.svd, np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: (seen.append(a.dtype), svd(a, **kw))[1])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (seen.append(a.dtype), eigvalsh(a))[1])
    for entries, dtype in (
        (np.eye(2, dtype=bool), np.float64),
        (np.eye(2, dtype=int), np.float64),
        ([[1, 0], [0, 2]], np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.array([[2, 1j], [-1j, 2]]), np.complex128),
        ([[Fraction(1, 3), 0], [0, 1]], np.complex128),
    ):
        seen.clear()
        assert real_or_complex(entries).dtype == dtype
        assert numerical_rank(entries)[0] == 2 and gram_signature(entries)[0] == (2, 0, 0)
        assert seen == [dtype, dtype]
