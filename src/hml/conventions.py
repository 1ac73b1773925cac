"""Sign and index conventions used throughout the package.

Every formula in the library is transcribed to the conventions below once;
tests validate them against closed forms on the round sphere.

Curvature
---------
The (1,3) curvature tensor is

    R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z,

stored lowered on the last slot:

    R[i, j, k, l] = g( R(e_i, e_j) e_k , e_l ).

With this sign the sectional curvature of the plane spanned by (u, v) is

    kappa(u, v) = R(u, v, v, u) / (|u|^2 |v|^2 - g(u,v)^2),

and the round unit sphere has kappa = +1 for every plane.  In a
g-orthonormal frame kappa = <Q s, s> on the unit simple 2-vectors s, with
the curvature operator Q[ab, cd] = R[a, b, d, c] over np.triu_indices(m, 1).
At m = 4, s is simple iff <s, *s> = 0, the Hodge star * pairing 01, 02, 03
with 23, -13, 12.

Component formula (Gamma[i, j, k] = Gamma_ij^k, symmetric in i, j):

    R^l_[ijk] = d_i Gamma_jk^l - d_j Gamma_ik^l
                + Gamma_im^l Gamma_jk^m - Gamma_jm^l Gamma_ik^m,
    R[i, j, k, l] = g[l, m] R^m_[ijk].

Ricci and scalar curvature
--------------------------
    ricci[j, k] = g^{il} R[i, j, k, l],      scal = g^{jk} ricci[j, k],

so the unit sphere has ricci = (m-1) g and scal = m(m-1).

Covariant derivatives of curvature
----------------------------------
nabla_r[s] has shape (m,)*4 + (m,)*s.  The first four indices are the
tensor slots of R, the trailing s indices are the differentiation
directions, outermost derivative last:

    nabla_r[s][i, j, k, l, p1, ..., ps] = (grad^s R)(e_i, e_j, e_k, e_l; e_p1, ..., e_ps).

The Jacobi operator of a direction xi and its radial derivatives are

    g( J_k(xi) h1, h2 ) = (grad^k R)(h1, xi, xi, h2; xi, ..., xi),

so that on the unit sphere J_0(xi) is the orthogonal projection onto
xi-perp (eigenvalues {0, 1, ..., 1}) and Tr J_0(xi) = ricci(xi, xi).

Laplacian
---------
Delta0 is the geometer's positive Laplacian:

    Delta0 f = -trace_g Hess f      (Euclidean: -sum d^2 f / dx_i^2),

matching the radial reduction Delta0 f = -Theta^{-1} d_r (Theta d_r f).

Geodesic-sphere shape operator
------------------------------
The second fundamental form L of the geodesic sphere S_P(r), measured in
the parallel-transported orthonormal frame, is oriented so that

    Tr L = +Xi = d_r log Theta      (Euclidean: L = r^{-1} Id).

Equivalently L = A'(r) A(r)^{-1} where A is the normal Jacobi-field
matrix with A(0) = 0, A'(0) = Id.  The inward-acceleration bilinear form
on normal-chart coordinate vectors, -r^{-1} delta_ab + Gamma_ab^1, equals
-(g restricted to the sphere) composed with this operator: one orientation
sign plus the induced-metric factor.

Derivative engine
-----------------
Metric components are evaluated through truncated multivariate Taylor
polynomials (jets); MAX_JET_ORDER below is the build-time cap on the
requested order.
"""

MAX_JET_ORDER = 14
