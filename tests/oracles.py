"""Reference checks that only the tests use."""

import scipy.sparse as sp


def is_symmetric(A, rel: float = 1e-12) -> bool:
    """Whether max |A - A^T| <= rel * max |A|."""
    A = sp.csr_matrix(A)
    d = abs(A - A.T)
    if d.nnz == 0:
        return True
    amax = abs(A).max() if A.nnz else 0.0
    return d.max() <= rel * max(amax, 1e-300)
