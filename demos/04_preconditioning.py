"""
IC(0) preconditioning and deflated inner solves
===============================================

All three eigensolvers lean on the same two building blocks: an
incomplete Cholesky factorization restricted to the Laplacian's own
sparsity pattern, and a conjugate-gradient solver that works in the
orthogonal complement of the kernel (and of any locked eigenvectors).
This demo shows both in isolation.
"""

import numpy as np

from lapeig import ic0_factorize, kernel_basis, pcg_solve
from lapeig.generators import grid_graph
from lapeig.graphs import build_laplacian
from lapeig.sparse import spmv

g = grid_graph(20, 20)
a = build_laplacian(g)
n = a.n

# the Laplacian is singular; the factorization shifts the diagonal just
# enough to stay positive definite and reports the shift it used
f = ic0_factorize(a)
print(f"grid Laplacian n = {n}, IC(0) shift = {f.shift:.3e} "
      f"after {f.attempts} attempt(s)")

# solve G x = b for b orthogonal to the kernel, iterates kept orthogonal
# to the constant vector by deflation
rng = np.random.default_rng(0)
b = rng.standard_normal(n)
b -= b.mean()
nb = kernel_basis(n)

plain = pcg_solve(a, None, b, 1e-10, 2000, deflation=nb)
fancy = pcg_solve(a, f, b, 1e-10, 2000, deflation=nb)
print(f"\nunpreconditioned CG iterations: {plain.iterations}")
print(f"IC(0)-preconditioned iterations: {fancy.iterations}")

# both solutions solve the singular system on the complement
for tag, out in (("plain", plain), ("ic0", fancy)):
    res = np.linalg.norm(spmv(a, out.solution) - b) / np.linalg.norm(b)
    drift = abs(out.solution.sum()) / np.sqrt(n)
    print(f"{tag:>6}: relative residual {res:.2e}, kernel drift {drift:.2e}")
