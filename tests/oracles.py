"""Frozen brute-force reference implementations for the test suite.

Each oracle recomputes a published quantity along an independent route:
chain quotient metrics as min-plus powers of the block matrix (with the
limit taken by a plain Floyd–Warshall, itself checked against Dijkstra's
search from each node), cover gauges straight from
membership tables, maximal cliques
by a scan over every vertex subset, and cone and join metrics through
product-then-quotient pipelines.  Everything operates on plain distance
matrices (lists of Fraction rows) so the oracles never depend on the
package's own data structures, with one exception: the sequence-space
embedding, its ball covers, its table of distances to the members'
complements and its continuity table are frozen copies of the package's
Fraction code, which read a space and build the package's own result
types, so that a result compares whole against its reference; so is the
integer embedding as it ran before it stored images as supports
(``aharoni_embed_dense``: dense columns, each a least entry over the
whole complement, and gaps over every coordinate); so are a
space's diameter, spectrum and rescale, as they ran before the integer
form.
So are the pair scans of the inverse-sequence diagnostics: the loops
over point pairs as they ran before those scans read one sorted sweep;
and the neighborhood rows, the stabilization rows and the threads as they
ran before they read survival depths, each image folded through the bonds
(``convergence_row_reference``, ``mittag_leffler_reference``,
``threads_reference``);
and the adjusted metric, the cylinder slices, the weighted-sup rows, the
glued union, the product, the interval, the largest isometry gap, the
four-case join distance and the adjunction's certificates as they ran on
Fractions, before they built ints; so are ``mcshane_extend_reference``
and ``extend_metric_reference``, McShane's extension (one call per row)
and the metric extension off a subset built on it.
So are a build op's boundary and certificate steps as they ran before
each took one pass: the axiom scan that walked every axiom for its first
witness on every space (``axiom_scan_reference``), the parse that read
every matrix entry (``space_from_json_reference``, on ``jsonio``'s own
entry reader) and the render through the ``Fraction`` view
(``space_to_json_reference``).
So are the min-plus product and the shortest-path closure on int
matrices as they ran before they packed rows (``min_plus_reference``,
``closure_reference``), and the star check, the metrization's
member-diameter loop and the point-finite refinement as they ran on sets
before covers kept int masks (``star_refines_reference``,
``member_diameter_reference``, ``point_finite_refinement_reference``).
A cubical complex, which the package stores as its maximal cubes, is
checked against its face-closed listing: every face of every cube.  The
sup distance of sequence space and the sub-cylinder of a restricted map
are references only the tests use.
"""

import heapq
from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, sub

from cubohedra import Cube
from sequences import SequencePoint
from unimet.covers import (
    Cover,
    RefinementResult,
    ball_cover,
    containment_from_distances,
)
from unimet.cylinders import mapping_cylinder_metric
from unimet.embedding import (
    AharoniEmbedding,
    EmbeddingCertificate,
    LevelData,
    SeparationRow,
)
from unimet.errors import PreconditionError, StructuralError
from unimet.invlim import (
    InjectivityRow,
    LimitClosenessRow,
    NeighborhoodRow,
    SeparationIndexResult,
    SeparationLevel,
    TelescopingRow,
    UniquenessRow,
)
from unimet.jsonio import _ratio_from_json, expect_key, label_from_json
from unimet.moduli import PairSweep
from unimet.quotients import quotient_by_discrete_family
from unimet.reporting import jsonable
from unimet.scalars import as_scalar, format_scalar, pow2
from unimet.spaces import (
    AxiomReport,
    AxiomViolation,
    FiniteMetricSpace,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    index_set,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---- chain quotient metrics ----


def block_distance_matrix(dist, class_of):
    """Minimum cross distance between classes, zero on the diagonal; a None
    entry is a forbidden hop, and a pair of classes with no allowed hop gets
    None."""
    classes = max(class_of) + 1
    block = [[None] * classes for _ in range(classes)]
    for c in range(classes):
        block[c][c] = ZERO
    n = len(dist)
    for i in range(n):
        for j in range(n):
            a, b = class_of[i], class_of[j]
            if a == b:
                continue
            v = dist[i][j]
            if v is not None and (block[a][b] is None or v < block[a][b]):
                block[a][b] = v
    return block


def min_plus(a, b):
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            best = None
            for k in range(size):
                if a[i][k] is None or b[k][j] is None:
                    continue
                v = a[i][k] + b[k][j]
                if best is None or v < best:
                    best = v
            row.append(best)
        out.append(row)
    return out


def chain_power(block, hops):
    """d_hops: chains of at most ``hops`` segments (diagonal zeros admit
    shorter chains)."""
    if hops < 1:
        raise ValueError("need at least one hop")
    current = block
    for _ in range(hops - 1):
        current = min_plus(current, block)
    return current


def chain_limit_apsp(block):
    """d_infinity as all-pairs shortest paths over the block graph: an
    exact Floyd–Warshall on Fractions, None for no path.

    The graph is undirected: the edge {i, j} weighs the smaller of
    block[i][j] and block[j][i] (None where both are None), and the block's
    diagonal is ignored, each node at distance zero from itself.
    """
    size = len(block)
    dist = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = block[i][j]
            if block[j][i] is not None and (w is None or block[j][i] < w):
                w = block[j][i]
            dist[i][j] = dist[j][i] = None if w is None else Fraction(w)
    for k in range(size):
        for i in range(size):
            if dist[i][k] is None:
                continue
            for j in range(size):
                if dist[k][j] is None:
                    continue
                v = dist[i][k] + dist[k][j]
                if dist[i][j] is None or v < dist[i][j]:
                    dist[i][j] = v
    return dist


def dijkstra_apsp(size, edges):
    """All-pairs shortest paths by Dijkstra from each node, on Fractions,
    None for no path: a stdlib route independent of Floyd–Warshall.

    ``edges`` maps a pair (i, j), i < j, to the nonnegative weight of the
    undirected edge between them.
    """
    neighbours = [[] for _ in range(size)]
    for (i, j), w in edges.items():
        neighbours[i].append((j, w))
        neighbours[j].append((i, w))
    rows = []
    for source in range(size):
        dist = [None] * size
        heap = [(ZERO, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if dist[node] is not None:
                continue
            dist[node] = d
            for other, w in neighbours[node]:
                if dist[other] is None:
                    heapq.heappush(heap, (d + w, other))
        rows.append(dist)
    return rows


def triangle_valid(matrix):
    size = len(matrix)
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if matrix[i][j] > matrix[i][k] + matrix[k][j]:
                    return False
    return True


# ---- metric axioms ----


def axiom_report_reference(points, dist, allow_pseudo):
    """The axiom scan on Fractions, entry by entry, as the package ran it
    before its integer kernel.

    Returns (ok, violations) with one (axiom, witness, lhs, rhs) per
    violated axiom, in the order diagonal, nonnegativity, symmetry,
    positivity (skipped when ``allow_pseudo``), triangle, each carrying the
    lexicographically first witness; a triangle witness (i, j, k) has k
    distinct from i and j.
    """
    d = dist
    pts = points
    n = len(d)
    violations = []

    for i in range(n):
        if d[i][i] != 0:
            violations.append(("diagonal", (pts[i],), d[i][i], ZERO))
            break
    for i in range(n):
        found = False
        for j in range(n):
            if d[i][j] < 0:
                violations.append(("nonnegativity", (pts[i], pts[j]), d[i][j], ZERO))
                found = True
                break
        if found:
            break
    for i in range(n):
        found = False
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                violations.append(("symmetry", (pts[i], pts[j]), d[i][j], d[j][i]))
                found = True
                break
        if found:
            break
    if not allow_pseudo:
        for i in range(n):
            found = False
            for j in range(i + 1, n):
                if d[i][j] == 0 and d[j][i] == 0:
                    violations.append(("positivity", (pts[i], pts[j]), ZERO, ZERO))
                    found = True
                    break
            if found:
                break
    done = False
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                lhs = d[i][k]
                rhs = d[i][j] + d[j][k]
                if lhs > rhs:
                    violations.append(("triangle", (pts[i], pts[j], pts[k]), lhs, rhs))
                    done = True
                    break
            if done:
                break
        if done:
            break
    return not violations, violations


def axiom_scan_reference(space):
    """The strict ``AxiomReport`` of ``space`` by the scan that ran on every
    space before the one-pass verdict: each axiom walked on the stored form
    for its first witness, the triangle by one row test per ordered pair
    (i, j) and a walk over k where it fails."""
    pts, m = space.points, space.ints

    def frac(v):
        return Fraction(v, space.scale)

    def first_pair(test):
        for i, row in enumerate(m):
            for j in range(i + 1, len(m)):
                if test(row[j], m[j][i]):
                    return i, j
        return None

    violations = []
    for i, row in enumerate(m):
        if row[i] != 0:
            violations.append(AxiomViolation("diagonal", (pts[i],), frac(row[i]), ZERO))
            break
    for i, row in enumerate(m):
        if min(row) < 0:
            j = next(j for j, v in enumerate(row) if v < 0)
            violations.append(
                AxiomViolation("nonnegativity", (pts[i], pts[j]), frac(row[j]), ZERO))
            break
    pair = first_pair(lambda a, b: a != b)
    if pair is not None:
        i, j = pair
        violations.append(
            AxiomViolation("symmetry", (pts[i], pts[j]), frac(m[i][j]), frac(m[j][i])))
    pair = first_pair(lambda a, b: a == 0 and b == 0)
    if pair is not None:
        i, j = pair
        violations.append(AxiomViolation("positivity", (pts[i], pts[j]), ZERO, ZERO))
    witness = None
    for i, row_i in enumerate(m):
        for j, row_j in enumerate(m):
            if j != i and max(map(sub, row_i, row_j)) > row_i[j]:
                witness = next(((i, j, k) for k, (x, y) in enumerate(zip(row_i, row_j))
                                if x - y > row_i[j] and k != i and k != j), None)
                if witness is not None:
                    break
        if witness is not None:
            break
    if witness is not None:
        i, j, k = witness
        violations.append(AxiomViolation(
            "triangle", (pts[i], pts[j], pts[k]), frac(m[i][k]), frac(m[i][j] + m[j][k])))
    return AxiomReport(ok=not violations, allow_pseudo=False, violations=tuple(violations))


# ---- the relax kernels before packing ----


def _min_sum_reference(row, col):
    return min(
        (x + y for x, y in zip(row, col) if x is not None and y is not None),
        default=None,
    )


def min_plus_reference(a, b):
    """``kernel.min_plus`` as it ran before it packed rows: a row or column
    free of None by ``min(map(add, row, col))``, the others entry by entry.
    Rectangular inputs (m x p times p x q) work as in the package."""
    cols = list(zip(*b))
    full = [None not in col for col in cols]
    out = []
    for row in a:
        if None in row:
            out.append([_min_sum_reference(row, col) for col in cols])
        else:
            out.append([
                min(map(add, row, col)) if ok else _min_sum_reference(row, col)
                for col, ok in zip(cols, full)
            ])
    return out


def closure_reference(block):
    """``kernel.closure`` as it ran before it packed rows: Floyd–Warshall on
    the int matrix, diagonal zeroed first, loop order k then i, a row free
    of None relaxed by ``max(map(sub, …))`` and the others entry by entry.
    Unlike ``chain_limit_apsp`` it keeps the block directed and runs on any
    entries, negative ones included."""
    dist = [list(row) for row in block]
    for i, row in enumerate(dist):
        row[i] = 0
    for k, row_k in enumerate(dist):
        k_full = None not in row_k
        for row_i in dist:
            dik = row_i[k]
            if dik is None:
                continue
            if k_full and None not in row_i:
                if max(map(sub, row_i, row_k)) > dik:
                    row_i[:] = [
                        a if a <= b else b
                        for a, b in zip(row_i, map(add, repeat(dik), row_k))
                    ]
            else:
                row_i[:] = [
                    a if b is None else dik + b if a is None or dik + b < a else a
                    for a, b in zip(row_i, row_k)
                ]
    return dist


# ---- cover gauge ----


def gauge_from_covers(member_lists, ground):
    """f(x, y) = 2^-n with n the deepest even level 2n whose cover
    co-contains x and y; 1 when only the trivial level qualifies.  On the
    diagonal that is the deepest even level, since every level covers x.

    ``member_lists[k]`` holds the members of the (k+1)-th cover as index
    collections, mirroring the one-based level numbering.
    """
    depth = len(member_lists)
    gauge = [[ZERO] * ground for _ in range(ground)]
    for x in range(ground):
        for y in range(ground):
            hit = 0
            for level in range(depth, 0, -1):
                if level % 2 != 0:
                    continue
                together = any(
                    x in member and y in member
                    for member in member_lists[level - 1]
                )
                if together:
                    hit = level // 2
                    break
            gauge[x][y] = Fraction(1, 2**hit)
    return gauge


def maximal_cliques_reference(neighbours):
    """Every vertex subset that is a clique and has no one-point extension,
    from a scan over all 2^n subsets (``neighbours[v]`` as in the package)."""
    size = len(neighbours)
    cliques = []
    for mask in range(1 << size):
        members = [v for v in range(size) if mask >> v & 1]
        if not all(b in neighbours[a] for a in members for b in members if a != b):
            continue
        if any(
            all(v in neighbours[u] for v in members)
            for u in range(size)
            if not mask >> u & 1
        ):
            continue
        cliques.append(frozenset(members))
    return cliques


# ---- covers on sets, as they ran before int masks ----


def _holders(cover):
    """Per point, the indices of the members holding it, in cover order."""
    held = [[] for _ in range(cover.ground)]
    for k, member in enumerate(cover.members):
        for x in member:
            held[x].append(k)
    return held


def _point_stars(cover):
    """Per point, the union of the members holding it, as a frozenset."""
    return [frozenset().union(*(cover.members[k] for k in held)) for held in _holders(cover)]


def star_refines_reference(cover, target):
    """None if the star of every member of cover lies in a member of target,
    else the index of the first member whose star does not: each star a
    union of point stars, tested as a set against the target members that
    hold the member's first point."""
    point_stars = _point_stars(cover)
    targets = [frozenset(member) for member in target.members]
    holders = _holders(target)
    for k, member in enumerate(cover.members):
        st = set().union(*map(point_stars.__getitem__, member))
        if not any(st <= targets[j] for j in holders[member[0]]):
            return k
    return None


def member_diameter_reference(cover, dist, bound):
    """The metrization's member-diameter loop on one level: (member index,
    a, b) for each pair a < b of a member, in member order, with
    ``dist[a][b] > bound``."""
    found = []
    for idx, member in enumerate(cover.members):
        for a in range(len(member)):
            for b in member[a + 1:]:
                if dist[member[a]][b] > bound:
                    found.append((idx, member[a], b))
    return found


def point_finite_refinement_reference(target, helper):
    """The point-finite refinement on sets: kernels peeled off the helper
    stars of the target members, their stars as members, and both
    certificates, with stars as unions of point stars."""
    if target.ground != helper.ground:
        raise StructuralError("covers must share the ground")
    bad = star_refines_reference(helper, target)
    if bad is not None:
        raise PreconditionError(
            f"helper member {bad} has a star inside no target member"
        )
    point_stars = _point_stars(helper)

    def star_of(subset):
        return set().union(*map(point_stars.__getitem__, subset))

    stars = [star_of(member) for member in target.members]
    eaten = set()
    members, origins, core = [], [], []
    for n, st_n in enumerate(stars):
        kernel = st_n - eaten
        eaten |= st_n
        if not kernel:
            continue
        members.append(star_of(kernel))
        origins.append(n)
        core.append(tuple(sorted(kernel)))
    result_cover = Cover(target.ground, tuple(members))
    double_star_ok = all(
        star_of(stars[origins[pos]]).issuperset(v)
        for pos, v in enumerate(result_cover.members)
    )
    target_sets = [frozenset(member) for member in target.members]
    target_holders = _holders(target)
    index_bound_ok = all(
        max(map(origins.__getitem__, held))
        <= next(j for j in target_holders[x] if point_star <= target_sets[j])
        for x, (held, point_star) in enumerate(zip(_holders(result_cover), point_stars))
    )
    return RefinementResult(
        result_cover, tuple(origins), tuple(core), double_star_ok, index_bound_ok
    )


# ---- product helpers ----


def l1_pair(dist_a, dist_b, pa, pb, qa, qb):
    return dist_a[pa][qa] + dist_b[pb][qb]


# ---- cone via product quotient ----


def cone_reference(base_dist, grid):
    """Cone distances as chain d_2 of the product quotient.

    The product of the base with the grid interval carries the l1 metric;
    the top slice t = 1 collapses to one class.  Returns (class_key ->
    oracle index, matrix); keys are ("seg", i, t) and ("apex",).
    """
    n = len(base_dist)
    points = [(i, t) for i in range(n) for t in grid]
    keys = []
    seen = {}
    class_of = []
    for i, t in points:
        key = ("apex",) if t == 1 else ("seg", i, t)
        if key not in seen:
            seen[key] = len(keys)
            keys.append(key)
        class_of.append(seen[key])
    size = len(points)
    dist = [[ZERO] * size for _ in range(size)]
    for a in range(size):
        ia, ta = points[a]
        for b in range(size):
            ib, tb = points[b]
            dist[a][b] = base_dist[ia][ib] + abs(ta - tb)
    block = block_distance_matrix(dist, class_of)
    return seen, chain_power(block, 2)


# ---- join via product quotient ----


def join_reference(left_dist, right_dist, grid):
    """Join distances as the shortest-path limit of the product quotient.

    Product points (x, y, t) carry the l1 metric of the three factors; the
    slice t = -1 collapses over y (keeping x) and t = +1 collapses over x
    (keeping y).  Returns (class_key -> oracle index, matrix); keys are
    ("x", i), ("y", j), and ("seg", i, j, t).
    """
    nl = len(left_dist)
    nr = len(right_dist)
    points = [(i, j, t) for i in range(nl) for j in range(nr) for t in grid]
    keys = []
    seen = {}
    class_of = []
    for i, j, t in points:
        if t == -1:
            key = ("x", i)
        elif t == 1:
            key = ("y", j)
        else:
            key = ("seg", i, j, t)
        if key not in seen:
            seen[key] = len(keys)
            keys.append(key)
        class_of.append(seen[key])
    size = len(points)
    dist = [[ZERO] * size for _ in range(size)]
    for a in range(size):
        ia, ja, ta = points[a]
        for b in range(size):
            ib, jb, tb = points[b]
            dist[a][b] = left_dist[ia][ib] + right_dist[ja][jb] + abs(ta - tb)
    block = block_distance_matrix(dist, class_of)
    return seen, chain_limit_apsp(block)


# ---- weighted sup ----


def weighted_sup_reference(level_dists, ta, tb):
    """max_k 2^-(k+1) d_k(ta[k], tb[k])."""
    best = ZERO
    for k, dist in enumerate(level_dists):
        v = Fraction(1, 2 ** (k + 1)) * dist[ta[k]][tb[k]]
        if v > best:
            best = v
    return best


# ---- integer producers, as the Fraction code ran them ----


def adjusted_metric_reference(source, target, m):
    """Rows of d_X(x, x') + d_Y(f(x), f(x')), ``m`` a total index tuple."""
    return tuple(
        tuple(source.d(i, j) + target.d(m[i], m[j]) for j in range(source.n))
        for i in range(source.n)
    )


def cylinder_slices_reference(source, target, f, grid, adjusted_rows, top_labels):
    """(points, rows) of the three cylinder formulas over Fractions."""
    inner = tuple(t for t in grid if t < 1)
    up = [ONE - t for t in inner]
    gaps = [[abs(t - s) for s in inner] for t in inner]
    image = [target.dist[y] for y in f]
    points = [("seg", p, t) for p in source.points for t in inner] + list(top_labels)
    rows = []
    for i, near in enumerate(adjusted_rows):
        for u, gap in zip(up, gaps):
            row = []
            for j, y in enumerate(f):
                lift = u + image[i][y]
                for g, v in zip(gap, up):
                    around = near[j] + g
                    through = lift + v
                    row.append(around if around <= through else through)
            row.extend(u + d for d in image[i])
            rows.append(tuple(row))
    for y, row_y in enumerate(target.dist):
        rows.append(tuple(u + image[j][y] for j in range(source.n) for u in up) + row_y)
    return tuple(points), tuple(rows)


def weighted_sup_rows_reference(levels, index_tuples):
    """Rows of max(0, max_k 2^-(k+1) d_k(a_k, b_k)) over the index tuples."""
    weights = [Fraction(1, 2 ** (k + 1)) for k in range(len(levels))]
    rows = []
    for ta in index_tuples:
        row = []
        for tb in index_tuples:
            best = ZERO
            for k, level in enumerate(levels):
                val = weights[k] * level.d(ta[k], tb[k])
                if val > best:
                    best = val
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def glued_union_reference(parts, identifications, cross):
    """(union, class_of): the union matrix of ``glue_parts`` over Fractions
    and the class of each of its points.  Inside a part the part's metric,
    between identified points of different parts zero, else ``cross`` (None
    for a forbidden hop).  Group k is class k; the points no group lists
    follow as singletons, in index order."""
    places = [(p, i) for p, part in enumerate(parts) for i in range(part.n)]
    class_of = [None] * len(places)
    for k, group in enumerate(identifications):
        for pair in group:
            class_of[places.index(tuple(pair))] = k
    count = len(identifications)
    for g, c in enumerate(class_of):
        if c is None:
            class_of[g] = count
            count += 1
    union = [
        [
            parts[p].d(i, j) if p == q
            else ZERO if class_of[g] == class_of[h]
            else cross
            for h, (q, j) in enumerate(places)
        ]
        for g, (p, i) in enumerate(places)
    ]
    return union, class_of


def product_metric_reference(left, right):
    """(points, rows) of the l1 product, left major."""
    points = []
    for p in left.points:
        for q in right.points:
            points.append((p, q))
    n_r = right.n
    size = left.n * n_r
    rows = []
    for a in range(size):
        i, j = divmod(a, n_r)
        row = []
        for b in range(size):
            k, l = divmod(b, n_r)
            row.append(left.d(i, k) + right.d(j, l))
        rows.append(tuple(row))
    return tuple(points), tuple(rows)


def interval_space_reference(grid):
    """(points, rows): the sorted distinct grid values and |a - b|."""
    values = tuple(sorted({as_scalar(t) for t in grid}))
    return values, tuple(tuple(abs(a - b) for b in values) for a in values)


def largest_gap_reference(space, other, index):
    """Largest |d(a, b) - d_other(index[a], index[b])| over Fractions."""
    worst = ZERO
    for a, row in enumerate(space.dist):
        for b, value in enumerate(row):
            gap = abs(value - other.d(index[a], index[b]))
            if gap > worst:
                worst = gap
    return worst


def join_distance_reference(left, right, a, b):
    """Four-case join distance between class descriptors (x index or None,
    y index or None, t); None marks the collapsed coordinate at an end,
    whose distance term drops out."""
    xa, ya, ta = a
    xb, yb, tb = b
    term_x = left.d(xa, xb) if xa is not None and xb is not None else ZERO
    term_y = right.d(ya, yb) if ya is not None and yb is not None else ZERO
    direct = term_x + term_y + abs(ta - tb)
    via_bottom = term_x + (ta + 1) + (tb + 1)
    via_top = term_y + (1 - ta) + (1 - tb)
    via_both = (2 - abs(ta - tb)) + 2
    return min(direct, via_bottom, via_top, via_both)


def attaching_is_lipschitz_reference(ext, target, attaching):
    """Whether the attaching map, a dict on the subset, is 1-Lipschitz from
    the extension into the target."""
    return all(
        target.d(attaching[a], attaching[b]) <= ext.d(a, b)
        for a in attaching
        for b in attaching
    )


def adjunction_clearance_reference(ext, subset, result):
    """(clearance, positivity) of an ``AdjunctionResult``: each point's
    extension distance to the subset, and whether every point off the subset
    has a positive clearance that no attached class comes closer than."""
    clearance = tuple(min(ext.d(x, a) for a in subset) for x in range(ext.n))
    positivity = all(
        clearance[x] > 0
        and all(result.space.d(result.x_class[x], q) >= clearance[x] for q in set(result.y_class))
        for x in range(ext.n)
        if x not in subset
    )
    return clearance, positivity


# ---- diameter, spectrum and rescale, as the Fraction code ran them ----


def diameter_reference(space):
    """Largest entry of the matrix, over Fractions; zero when empty."""
    return max((v for row in space.dist for v in row), default=ZERO)


def spectrum_reference(space):
    """Sorted distinct Fractions above the diagonal, zero included."""
    values = {ZERO}
    for i in range(space.n):
        for j in range(i + 1, space.n):
            values.add(space.dist[i][j])
    return tuple(sorted(values))


def scaled_reference(space, factor):
    """Every distance times the factor, one Fraction product per entry."""
    f = as_scalar(factor)
    if f <= 0:
        raise PreconditionError("scale factor must be positive")
    dist = tuple(tuple(f * v for v in row) for row in space.dist)
    return FiniteMetricSpace(space.points, dist, space.pseudo)


# ---- McShane's extension and the metric extension, as they ran on Fractions ----


def mcshane_extend_reference(space, subset, values, lipschitz):
    """min over a of g(a) + L d(x, a), after the pair scan that refuses the
    first pair in subset order with |g(a) - g(b)| > L d(a, b)."""
    L = as_scalar(lipschitz)
    if L < 0:
        raise StructuralError("Lipschitz constant must be nonnegative")
    idxs = list(subset)
    if not idxs:
        raise PreconditionError("mcshane_extend needs a nonempty subset")
    if len(index_set(idxs, space.n, "subset index")) != len(idxs):
        raise StructuralError("duplicate subset index")
    if isinstance(values, Mapping):
        g = {a: as_scalar(values[a]) for a in idxs}
    else:
        vals = list(values)
        if len(vals) != len(idxs):
            raise StructuralError("values must align with the subset")
        g = {a: as_scalar(v) for a, v in zip(idxs, vals)}
    for a in idxs:
        for b in idxs:
            if abs(g[a] - g[b]) > L * space.d(a, b):
                raise PreconditionError(
                    f"values are not {L}-Lipschitz on the subset: "
                    f"|g({space.points[a]!r}) - g({space.points[b]!r})| = {abs(g[a] - g[b])} "
                    f"> {L * space.d(a, b)}"
                )
    return [min(g[a] + L * space.d(x, a) for a in idxs) for x in range(space.n)]


def extend_metric_reference(space, subset, partial):
    """The pointwise max of the clamped coordinates sup_a |D~(x, a) - D~(y,
    a)|, each D~(., a) one ``mcshane_extend_reference`` call, and the
    collapsed quotient metric times 1 / max(1, its diameter), with the
    restriction and axiom checks, all on Fractions."""
    ensure_metric(space, "extend_metric")
    A = index_set(subset, space.n, "extend_metric: subset index")
    if not A:
        raise PreconditionError("extend_metric: the subset must be nonempty")
    if isinstance(partial, FiniteMetricSpace):
        D = partial.dist
    else:
        D = tuple(tuple(as_scalar(v) for v in row) for row in partial)
    if len(D) != len(A) or any(len(r) != len(A) for r in D):
        raise StructuralError(f"extend_metric: partial metric must be {len(A)}x{len(A)}")
    ensure_metric(FiniteMetricSpace(tuple(range(len(A))), D), "extend_metric: partial metric")
    pos = {a: k for k, a in enumerate(A)}
    diam_d = max((v for row in D for v in row), default=ZERO)
    L = ONE
    for i, a in enumerate(A):
        for j, b in enumerate(A):
            if a != b and D[i][j] / space.d(a, b) > L:
                L = D[i][j] / space.d(a, b)
    coords = []
    for i, a in enumerate(A):
        extended = mcshane_extend_reference(space, A, {b: D[i][pos[b]] for b in A}, L)
        coords.append([min(v, diam_d) for v in extended])
    quotient = quotient_by_discrete_family(space, [A]) if len(A) < space.n else None
    if quotient is not None:
        q_class = quotient.class_of
        q_diam = quotient.space.diameter()
        q_scale = ONE / q_diam if q_diam > 1 else ONE
    rows = []
    for x in range(space.n):
        row = []
        for y in range(space.n):
            best = max((abs(c[x] - c[y]) for c in coords), default=ZERO)
            if quotient is not None:
                best = max(best, quotient.space.d(q_class[x], q_class[y]) * q_scale)
            row.append(best)
        rows.append(tuple(row))
    result = FiniteMetricSpace(space.points, tuple(rows))
    for a in A:
        for b in A:
            if result.d(a, b) != D[pos[a]][pos[b]]:
                raise PreconditionError(
                    "extension failed to restrict to the given metric at "
                    f"({space.points[a]!r}, {space.points[b]!r})"
                )
    report = check_metric_axioms(result)
    if not report.ok:
        raise PreconditionError(f"extension failed the metric axioms: {report.violations[0]}")
    return result


# ---- sequence space and cubical complexes ----


def sup_distance(a, b):
    """Exact sup-norm distance: beyond both supports the gap is |tail-tail|."""
    best = abs(a.tail - b.tail)
    for i in set(a.support_indices()) | set(b.support_indices()):
        best = max(best, abs(a.value(i) - b.value(i)))
    return best


def cube_faces(cube, edge):
    """All proper faces of a cube: each nonempty subset of its extent
    collapsed to the bottom or to the top of the edge."""
    out = []
    ext = cube.extent
    for keep_mask in range(1 << len(ext)):
        kept = tuple(ext[k] for k in range(len(ext)) if keep_mask >> k & 1)
        collapsed = [ext[k] for k in range(len(ext)) if not keep_mask >> k & 1]
        if not collapsed:
            continue
        for top_mask in range(1 << len(collapsed)):
            base = dict(cube.base)
            for k, i in enumerate(collapsed):
                value = cube.base_value(i) + (edge if top_mask >> k & 1 else 0)
                if value == 0:
                    base.pop(i, None)
                else:
                    base[i] = value
            out.append(Cube(tuple(sorted(base.items())), kept))
    return tuple(out)


def face_closure(complex_):
    """Every cube of a complex and every face of one, ordered by dimension,
    extent and base: 3^k cubes for one k-cube."""
    closed = set()
    queue = list(complex_.cubes)
    while queue:
        cube = queue.pop()
        if cube not in closed:
            closed.add(cube)
            queue.extend(cube_faces(cube, complex_.edge))
    return tuple(sorted(closed, key=lambda c: (c.dimension, c.extent, c.base)))


def _gaps(x, cube, edge):
    """Per coordinate, how far x lies outside the cube's interval."""
    for i in set(cube.indices()) | set(x.support_indices()):
        low, high = cube.interval(i, edge)
        yield max(low - x.value(i), x.value(i) - high, ZERO)


def maximal_cubes_reference(cubes, edge):
    """The cubes that lie in no other cube of the list, in list order."""
    def inside(small, big):
        return all(
            big.interval(i, edge)[0] <= small.interval(i, edge)[0]
            and small.interval(i, edge)[1] <= big.interval(i, edge)[1]
            for i in set(small.indices()) | set(big.indices())
        )
    return tuple(
        c for c in cubes
        if not any(o is not c and o.dimension >= c.dimension and inside(c, o) for o in cubes)
    )


def membership_reference(x, cubes, edge):
    """A tail-0 point lies in some cube of the list."""
    return x.tail == 0 and any(not any(_gaps(x, c, edge)) for c in cubes)


def distance_to_cubes_reference(x, cubes, edge):
    """Sup distance from a tail-0 point to the union of the cubes."""
    return min(max(_gaps(x, c, edge), default=ZERO) for c in cubes)


# ---- mapping cylinders ----


def submetric(space, indices):
    """The space on the points at ``indices``, in that order, with the
    induced distances; each index is read by ``index_set`` and must be
    distinct."""
    idx = list(indices)
    if len(index_set(idx, space.n, "index")) != len(idx):
        raise StructuralError("subset indices must be distinct")
    m = space.ints
    return FiniteMetricSpace.from_int(
        [space.points[i] for i in idx], [[m[i][j] for j in idx] for i in idx],
        space.scale, space.pseudo)


def sub_cylinder(cylinder, indices):
    """Cylinder of the restriction f|_A, with the induced-submetric check.

    Returns (restricted cylinder, True/False): the cylinder built from
    scratch on the sub-source, and whether its metric equals the submetric
    induced from the ambient cylinder on the matching classes entrywise.
    """
    idx = list(indices)
    sub = mapping_cylinder_metric(
        submetric(cylinder.source, idx),
        cylinder.target,
        tuple(cylinder.mapping[i] for i in idx),
        cylinder.t_grid,
    )
    ambient = [cylinder.seg_index(i, t) for i in idx for t in sub.inner_ts]
    ambient += [cylinder.y_index(j) for j in range(cylinder.target.n)]
    return sub, submetric(cylinder.space, ambient).dist == sub.space.dist


# ---- sequence-space embedding, as the Fraction code ran it ----


def ball_cover_reference(space, radius):
    """Closed-ball cover on Fractions, one member per point."""
    r = as_scalar(radius)
    if r < 0:
        raise StructuralError("ball radius must be nonnegative")
    members = []
    for x in range(space.n):
        members.append(tuple(y for y in range(space.n) if space.d(x, y) <= r))
    return Cover(space.n, tuple(members))


def complement_distances_reference(space, cover):
    """Per member, d(x, complement of the member) over the points x, as
    Fractions; None for a member that is the whole ground."""
    everything = set(range(space.n))
    table = []
    for member in cover.members:
        complement = everything - set(member)
        table.append(
            [min(space.d(x, c) for c in complement) for x in range(space.n)]
            if complement else None
        )
    return table


def ball_containment_number_reference(space, cover, cap=None):
    """Largest spectrum threshold (or the cap) at which every open ball
    B(x, L) sits inside one member, threshold by threshold on Fractions."""
    if cover.ground != space.n:
        raise StructuralError("cover ground does not match the space")
    capped = as_scalar(cap) if cap is not None else None
    candidates = [v for v in space.spectrum() if v > 0]
    if capped is not None:
        candidates = [v for v in candidates if v <= capped]
        candidates.append(capped)
    targets = [frozenset(member) for member in cover.members]
    best = None
    for threshold in sorted(set(candidates)):
        ok = True
        for x in range(space.n):
            ball = frozenset(y for y in range(space.n) if space.d(x, y) < threshold)
            if not any(ball <= t for t in targets):
                ok = False
                break
        if ok:
            best = threshold
        else:
            break
    return best


def continuity_modulus_reference(source, target, mapping):
    """Continuity table by its definition: per source-spectrum delta, the
    largest image distance over pairs at source distance <= delta."""
    rows = []
    for delta in source.spectrum():
        eps = ZERO
        for i in range(source.n):
            for j in range(i + 1, source.n):
                if source.d(i, j) <= delta:
                    image = target.d(mapping[i], mapping[j])
                    if image > eps:
                        eps = image
        rows.append((delta, eps))
    return tuple(rows)


def uniform_continuity_witness_reference(source, target, mapping, delta, epsilon):
    """None when pairs within delta map to pairs within epsilon, else the
    lexicographically first offending pair (i, j, source distance, image
    distance)."""
    for i in range(source.n):
        for j in range(i + 1, source.n):
            if source.d(i, j) <= delta and target.d(mapping[i], mapping[j]) > epsilon:
                return (i, j, source.d(i, j), target.d(mapping[i], mapping[j]))
    return None


def aharoni_embed_reference(space, depth):
    """The embedding computed on Fractions, point by point and member by
    member, with its certificate, as the package built it before its
    integer form; it returns the package's own ``AharoniEmbedding``, so the
    two results compare whole."""
    ensure_metric(space, "aharoni_embed")
    ensure_diameter_at_most(
        space, ONE, "aharoni_embed (rescale with rescaled_to_diameter)"
    )
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError("depth must be a positive integer")

    levels = []
    offset = 0
    for n in range(1, depth + 1):
        radius = pow2(-n - 2)
        target = ball_cover_reference(space, radius)
        helper = ball_cover_reference(space, radius / 5)
        try:
            refinement = point_finite_refinement_reference(target, helper)
        except PreconditionError as exc:
            raise PreconditionError(f"refinement failed at level {n}: {exc}")
        clamp = ball_containment_number_reference(
            space, refinement.cover, cap=pow2(-n)
        )
        if clamp is None or clamp <= 0:
            raise PreconditionError(f"no positive containment number at level {n}")
        levels.append(LevelData(n, refinement, clamp, offset))
        offset += len(refinement.cover.members)

    everything = set(range(space.n))
    images = []
    for x in range(space.n):
        pairs = []
        for data in levels:
            for i, member in enumerate(data.cover.members):
                complement = everything - set(member)
                if complement:
                    value = min(space.d(x, c) for c in complement)
                    if value > data.clamp:
                        value = data.clamp
                else:
                    value = ZERO
                if value != 0:
                    pairs.append((data.offset + i, value))
        images.append(SequencePoint(tuple(pairs)))
    images = tuple(images)

    image_gaps = [
        [sup_distance(images[a], images[b]) for b in range(space.n)]
        for a in range(space.n)
    ]
    nonexpansive = all(
        image_gaps[a][b] <= space.d(a, b)
        for a in range(space.n)
        for b in range(space.n)
    )
    bounds_ok = True
    for data in levels:
        hi = pow2(-data.level)
        members = len(data.cover.members)
        for img in images:
            for idx, value in img.support:
                if data.offset <= idx < data.offset + members:
                    if not 0 <= value <= hi:
                        bounds_ok = False
    rows = []
    for data in levels:
        threshold = data.clamp / 2
        bound = pow2(1 - data.level)
        holds = all(
            image_gaps[a][b] > threshold or space.d(a, b) <= bound
            for a in range(space.n)
            for b in range(space.n)
        )
        rows.append(SeparationRow(data.level, threshold, bound, holds))
    injective = all(
        image_gaps[a][b] > 0
        for a in range(space.n)
        for b in range(a + 1, space.n)
    )
    image_space = FiniteMetricSpace(
        tuple(range(space.n)),
        tuple(tuple(row) for row in image_gaps),
        pseudo=not injective,
    )
    table = continuity_modulus_reference(space, image_space, tuple(range(space.n)))
    # The package keeps images and rows as ints over one denominator.
    big = lcm(space.scale, 2 ** (depth + 2))
    supports = tuple({k: _over(v, big) for k, v in img.support} for img in images)
    rows_ints = tuple((_over(delta, big), _over(eps, big)) for delta, eps in table)
    certificate = EmbeddingCertificate(
        rows_ints, big, tuple(rows), injective, nonexpansive, bounds_ok
    )
    return AharoniEmbedding(space, depth, tuple(levels), supports, big, certificate)


def _over(value, big):
    """A Fraction as an int over ``big``, which its denominator divides."""
    scaled = value * big
    if scaled.denominator != 1:
        raise AssertionError(f"{value} is not an int over {big}")
    return scaled.numerator


def embedded_images(emb):
    """Each point's image as a ``SequencePoint``: its support's ints over
    the embedding's ``big`` as Fractions, every other coordinate 0."""
    return tuple(
        SequencePoint(tuple((k, Fraction(v, emb.big)) for k, v in support.items()))
        for support in emb.supports
    )


def continuity_rows(cert):
    """The modulus of continuity as (delta, epsilon) Fractions."""
    return tuple((Fraction(d, cert.big), Fraction(e, cert.big)) for d, e in cert.continuity_ints)



def complement_distances_dense(space, cover):
    """Per member, d(x, complement of the member) as the least entry of
    row x of the space's ``ints`` over the whole complement; None for a
    member that is the whole ground."""
    table = []
    for member in map(frozenset, cover.members):
        rest = [y for y in range(space.n) if y not in member]
        table.append([min(map(row.__getitem__, rest)) for row in space.ints] if rest else None)
    return table


def aharoni_embed_dense(space, depth):
    """The embedding on ints as it ran before it stored images as
    supports: one dense column per cover member, each image the vector of
    every coordinate, and each pair's gap the largest difference over all
    of them; it returns the package's own ``AharoniEmbedding``."""
    ensure_metric(space, "aharoni_embed")
    ensure_diameter_at_most(space, ONE, "aharoni_embed")
    levels = []
    tables = []
    offset = 0
    for n in range(1, depth + 1):
        radius = pow2(-n - 2)
        refinement = point_finite_refinement_reference(
            ball_cover(space, radius), ball_cover(space, radius / 5)
        )
        table = complement_distances_dense(space, refinement.cover)
        clamp = containment_from_distances(space, table, cap=pow2(-n))
        if clamp is None or clamp <= 0:
            raise PreconditionError(f"no positive containment number at level {n}")
        levels.append(LevelData(n, refinement, clamp, offset))
        tables.append(table)
        offset += len(refinement.cover.members)

    big = lcm(space.scale, 2 ** (depth + 2))
    factor = big // space.scale
    clamps = [data.clamp.numerator * (big // data.clamp.denominator) for data in levels]
    columns = []
    for table, clamp in zip(tables, clamps):
        for column in table:
            if column is None:
                columns.append([0] * space.n)
                continue
            columns.append([min(v * factor, clamp) for v in column])
    vectors = list(zip(*columns))
    pairs = [
        (row[b] * factor, max(map(abs, map(sub, vectors[a], vectors[b]))))
        for a, row in enumerate(space.ints)
        for b in range(a + 1, space.n)
    ]
    nonexpansive = all(gap <= d for d, gap in pairs)
    bounds_ok = all(
        0 <= value <= big >> data.level
        for data in levels
        for column in columns[data.offset:data.offset + len(data.cover.members)]
        for value in column
    )
    separating = PairSweep((2 * gap, d) for d, gap in pairs)
    separation = tuple(
        SeparationRow(
            data.level, data.clamp / 2, pow2(1 - data.level),
            separating.largest_within(clamp) <= big >> (data.level - 1),
        )
        for data, clamp in zip(levels, clamps)
    )
    injective = all(gap > 0 for _, gap in pairs)
    supports = tuple({i: v for i, v in enumerate(vector) if v} for vector in vectors)
    sweep = PairSweep(pairs)
    continuity = tuple(
        (delta, sweep.largest_within(delta)) for delta in sorted({0, *sweep.firsts})
    )
    certificate = EmbeddingCertificate(
        continuity, big, separation, injective, nonexpansive, bounds_ok
    )
    return AharoniEmbedding(space, depth, tuple(levels), supports, big, certificate)


# ---- pair scans, as the loops ran them ----


def image_reference(truncation, j, i, points=None):
    """Sorted image of level j in level i, folding the bonds one by one;
    of the given points of level j when ``points`` is set."""
    points = set(range(truncation.levels[j].n) if points is None else points)
    for k in range(j - 1, i - 1, -1):
        points = {truncation.bonds[k][x] for x in points}
    return tuple(sorted(points))


def within_neighborhood_reference(space, inner, outer, eps):
    """Whether every point of ``inner`` lies within eps of ``outer``."""
    if not inner:
        return True
    if not outer:
        return False
    return all(min(space.d(x, y) for y in outer) <= eps for x in inner)


def convergence_row_reference(truncation, level, epsilon):
    """Containment of each image in the closed neighborhood of the top
    image, with the first index from which every later containment holds."""
    eps = as_scalar(epsilon)
    space = truncation.levels[level]
    shadow = image_reference(truncation, truncation.top, level)
    holds = tuple(
        within_neighborhood_reference(space, image_reference(truncation, j, level), shadow, eps)
        for j in range(level, truncation.top + 1)
    )
    start = truncation.top
    for j in range(truncation.top - 1, level - 1, -1):
        if holds[j - level]:
            start = j
        else:
            break
    return NeighborhoodRow(level, truncation.top, eps, start)


def cauchy_row_reference(truncation, level, epsilon):
    """Anchors k whose image lies in the neighborhood of every later image,
    with the smallest anchor."""
    eps = as_scalar(epsilon)
    space = truncation.levels[level]
    images = {
        j: image_reference(truncation, j, level)
        for j in range(level, truncation.top + 1)
    }
    viable = tuple(
        all(
            within_neighborhood_reference(space, images[k], images[j], eps)
            for j in range(k + 1, truncation.top + 1)
        )
        for k in range(level, truncation.top + 1)
    )
    start = next(k for k in range(level, truncation.top + 1) if viable[k - level])
    return NeighborhoodRow(level, truncation.top, eps, start)


def mittag_leffler_reference(truncation):
    """The stabilization rows as they ran on the composites: every image
    chain folded through the bonds, settled at its first image equal to the
    last, and listed only for a row that does not stabilize."""
    from unimet.invlim import StabilizationRow

    top = truncation.top
    rows = []
    for i in range(top + 1):
        images = tuple(image_reference(truncation, k, i) for k in range(i, top + 1))
        settle = next(k for k in range(i, top + 1) if images[k - i] == images[-1])
        if settle < top or i == top:
            rows.append(StabilizationRow(i, (), settle))
        else:
            rows.append(StabilizationRow(i, images, None))
    return tuple(rows)


def threads_reference(truncation):
    """One thread per top-level point, each entry the image of that point
    folded down through the bonds."""
    top = truncation.top
    return [
        tuple(image_reference(truncation, top, i, (x,))[0] for i in range(top + 1))
        for x in range(truncation.levels[top].n)
    ]


def separation_index_reference(truncation, bundle, epsilon):
    """The separation scan over every thread pair, level by level: the
    smallest projected gap among threads further apart than epsilon, with
    the first pair attaining it."""
    eps = as_scalar(epsilon)
    count = len(bundle.threads)
    scanned = []
    for i in range(truncation.top + 1):
        level_space = truncation.levels[i]
        proj = [thread[i] for thread in bundle.threads]
        cut = None
        witness = None
        for a in range(count):
            for b in range(a + 1, count):
                if bundle.space.d(a, b) <= eps:
                    continue
                gap = level_space.d(proj[a], proj[b])
                if cut is None or gap < cut:
                    cut = gap
                    witness = (a, b, gap, bundle.space.d(a, b))
        if cut is None:
            positive = [v for v in level_space.spectrum() if v > 0]
            row = SeparationLevel(i, positive[-1] if positive else ONE, None)
        elif cut > 0:
            row = SeparationLevel(i, cut, None)
        else:
            row = SeparationLevel(i, None, witness)
        scanned.append(row)
        if row.separates:
            return SeparationIndexResult(eps, i, row.threshold, tuple(scanned))
    return SeparationIndexResult(eps, None, None, tuple(scanned))


def _largest_forced(level, proj, bundle, threshold):
    """Largest thread distance among thread pairs whose projections lie
    within ``threshold`` in ``level``."""
    forced = ZERO
    for a in range(len(bundle.threads)):
        for b in range(a + 1, len(bundle.threads)):
            if level.d(proj[a], proj[b]) <= threshold:
                gap = bundle.space.d(a, b)
                if gap > forced:
                    forced = gap
    return forced


def uniqueness_rows_reference(ladder_data, target_bundle):
    """Per target level j: four betas and the thread distance they force."""
    rows = []
    for j, level in enumerate(ladder_data.target.levels):
        threshold = 4 * ladder_data.betas[j]
        proj = [thread[j] for thread in target_bundle.threads]
        rows.append(UniquenessRow(j, threshold, _largest_forced(level, proj, target_bundle, threshold)))
    return tuple(rows)


def injectivity_rows_reference(ladder_data, source_bundle):
    """Per target level j: the source distance gamma that cross-map images
    within five betas force, and the thread distance gamma forces."""
    rows = []
    for j, image_level in enumerate(ladder_data.target.levels):
        five = 5 * ladder_data.betas[j]
        cross_map = ladder_data.cross[j]
        level = ladder_data.source.levels[ladder_data.indices[j]]
        gamma = ZERO
        for a in range(level.n):
            for b in range(a + 1, level.n):
                if image_level.d(cross_map[a], cross_map[b]) <= five:
                    if level.d(a, b) > gamma:
                        gamma = level.d(a, b)
        proj = [thread[ladder_data.indices[j]] for thread in source_bundle.threads]
        rows.append(InjectivityRow(j, gamma, _largest_forced(level, proj, source_bundle, gamma)))
    return tuple(rows)


def attained_continuity_reference(upper, lower, composite, alpha):
    """Largest image distance under ``composite`` over pairs within alpha."""
    attained = ZERO
    for a in range(upper.n):
        for b in range(a + 1, upper.n):
            if upper.d(a, b) <= alpha:
                image = lower.d(composite[a], composite[b])
                if image > attained:
                    attained = image
    return attained


def _worst_gap_reference(level, f, g):
    worst = ZERO
    witness = None
    for x in range(len(f)):
        gap = level.d(f[x], g[x])
        if witness is None or gap > worst:
            worst = gap
            witness = x
    return worst, witness


def _fold(truncation, points, upper, lower):
    """Images in level ``lower`` of ``points`` of level ``upper``."""
    for k in range(upper - 1, lower - 1, -1):
        points = [truncation.bonds[k][x] for x in points]
    return points


def closeness_rows_reference(ladder_data):
    """Square defects with their witnesses, telescoping rows and limit rows,
    point by point, with every map composed bond by bond."""
    source, target = ladder_data.source, ladder_data.target
    stages = target.top
    indices = ladder_data.indices
    top_points = list(range(source.levels[source.top].n))

    def stage_map(i, j):
        down = _fold(source, top_points, source.top, indices[i])
        return _fold(target, [ladder_data.cross[i][y] for y in down], i, j)

    squares = []
    for i in range(stages):
        down = _fold(source, list(range(source.levels[indices[i + 1]].n)), indices[i + 1], indices[i])
        left = [ladder_data.cross[i][y] for y in down]
        right = [target.bonds[i][y] for y in ladder_data.cross[i + 1]]
        worst, x = _worst_gap_reference(target.levels[i], left, right)
        squares.append((worst, None if x is None else (x, left[x], right[x])))
    telescoping = tuple(
        TelescopingRow(
            i, j, pow2(j - i) * ladder_data.betas[j],
            max([ZERO] + [target.levels[j].d(a, b) for a, b in zip(stage_map(i, j), stage_map(i + 1, j))]),
        )
        for j in range(stages + 1)
        for i in range(j, stages)
    )
    limits = tuple(
        LimitClosenessRow(
            j, 2 * ladder_data.betas[j],
            *_worst_gap_reference(target.levels[j], stage_map(stages, j), stage_map(j, j)),
        )
        for j in range(stages + 1)
    )
    return tuple(squares), telescoping, limits


# ---- the space wire format, entry by entry ----


def space_from_json_reference(obj):
    """A space document read as before the parse memo: every matrix entry
    through ``jsonio``'s entry reader, in row-major order."""
    points = expect_key(obj, "points", "a metric space")
    dist = expect_key(obj, "dist", "a metric space")
    if not isinstance(points, list) or not isinstance(dist, list):
        raise StructuralError("space points and dist must be arrays")
    labels = tuple(label_from_json(p) for p in points)
    rows = []
    for row in dist:
        if not isinstance(row, list):
            raise StructuralError("dist must be an array of arrays")
        rows.append([_ratio_from_json(v) for v in row])
    pseudo = obj.get("pseudo", False)
    if not isinstance(pseudo, bool):
        raise StructuralError("pseudo must be a boolean")
    scale = lcm(*{q for row in rows for _, q in row})
    m = [[p * (scale // q) for p, q in row] for row in rows]
    return FiniteMetricSpace.from_int(labels, m, scale, pseudo)


def space_to_json_reference(space):
    """A space document written as before the render from the stored form:
    every entry of the ``Fraction`` view through ``format_scalar``."""
    out = {
        "points": jsonable(space.points),
        "dist": [[format_scalar(v) for v in row] for row in space.dist],
    }
    if space.pseudo:
        out["pseudo"] = True
    return out
