"""The least-squares motion estimator, for tests only.

fieldreg.motion fits every similarity in closed form from centred sums.
These are the earlier forms, which solve the stacked 2M x 4 linear system
with np.linalg.lstsq; the tests check that both give the same inlier masks
and parameters.  estimate_global_motion takes the same arguments and gives
the same results as its fieldreg namesake.  fit_similarity is the lstsq form
of the final refit in fieldreg.motion, which closed_form_fit calls.
"""

import numpy as np

from fieldreg import motion
from fieldreg.errors import DegenerateConfiguration, InsufficientPoints, NoConsensus
from fieldreg.motion import MAD_MULTIPLIER, AffineSimilarity


def closed_form_fit(prev_pts, curr_pts):
    """fieldreg.motion's least-squares similarity from centred sums, as
    estimate_global_motion refits its consensus; raises as fit_similarity."""
    prev_pts, curr_pts = motion._check_pairs(prev_pts, curr_pts)
    return motion._similarity(motion._fit(np.concatenate([prev_pts, curr_pts], axis=1)))


def fit_similarity(prev_pts, curr_pts):
    """Least-squares AffineSimilarity mapping prev_pts onto curr_pts.

    Linear in (a, b, tx, ty); needs >= 2 pairs and at least 2 distinct source
    points.  Raises InsufficientPoints / DegenerateConfiguration.
    """
    prev_pts = np.asarray(prev_pts, dtype=float)
    curr_pts = np.asarray(curr_pts, dtype=float)
    if prev_pts.ndim != 2 or prev_pts.shape[1] != 2 or prev_pts.shape != curr_pts.shape:
        raise ValueError(
            f"need matching (M, 2) arrays, got {prev_pts.shape} and {curr_pts.shape}")
    m = prev_pts.shape[0]
    if m < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {m}")

    A = np.zeros((2 * m, 4))
    px, py = prev_pts[:, 0], prev_pts[:, 1]
    A[0::2, 0] = px
    A[0::2, 1] = -py
    A[0::2, 2] = 1.0
    A[1::2, 0] = py
    A[1::2, 1] = px
    A[1::2, 3] = 1.0
    rhs = curr_pts.ravel()
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < 4:
        raise DegenerateConfiguration("source points do not determine a similarity")
    a, b, tx, ty = sol
    if a * a + b * b <= 0.0:
        raise DegenerateConfiguration("fit collapsed to zero scale")
    return AffineSimilarity(float(a), float(b), float(tx), float(ty))


def estimate_global_motion(prev_pts, curr_pts, inlier_threshold_px=1.5, max_iters=500,
                           rng_seed=0, mad_multiplier=MAD_MULTIPLIER, confidence=0.99):
    """Robust global motion from (possibly contaminated) point correspondences.

    Two stages: (i) drop pairs whose displacement sits farther from the median
    displacement than mad_multiplier times the median absolute deviation;
    (ii) RANSAC over 2-point similarity hypotheses with a final least-squares
    refit over the consensus.  Returns (AffineSimilarity, inlier_mask) with
    the mask in input order (MAD-discarded pairs are False).

    The pairs are sorted canonically before sampling, so the result does not
    depend on input order for a fixed seed.  Raises InsufficientPoints and
    NoConsensus (callers typically fall back to identity and flag the frame).
    """
    prev_pts = np.asarray(prev_pts, dtype=float)
    curr_pts = np.asarray(curr_pts, dtype=float)
    if prev_pts.ndim != 2 or prev_pts.shape[1] != 2 or prev_pts.shape != curr_pts.shape:
        raise ValueError(
            f"need matching (M, 2) arrays, got {prev_pts.shape} and {curr_pts.shape}")
    n = prev_pts.shape[0]
    if n < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {n}")

    order = np.lexsort((curr_pts[:, 1], curr_pts[:, 0], prev_pts[:, 1], prev_pts[:, 0]))
    p = prev_pts[order]
    c = curr_pts[order]

    disp = c - p
    med = np.median(disp, axis=0)
    r = np.sqrt(((disp - med) ** 2).sum(axis=1))
    thresh = mad_multiplier * np.median(r)
    if thresh <= 0.0:
        thresh = 1e-9  # all displacements identical up to noise below any MAD
    keep = r <= thresh
    kept_idx = np.flatnonzero(keep)
    if kept_idx.size < 2:
        kept_idx = np.arange(n)
        keep = np.ones(n, dtype=bool)

    kp, kc = p[kept_idx], c[kept_idx]
    mk = kept_idx.size
    rng = np.random.Generator(np.random.Philox(rng_seed))
    best_count = 0
    best_inliers = None
    needed = max_iters
    it = 0
    while it < min(max_iters, needed):
        it += 1
        i, j = rng.choice(mk, size=2, replace=False)
        if np.all(kp[i] == kp[j]):
            continue
        try:
            cand = fit_similarity(kp[[i, j]], kc[[i, j]])
        except DegenerateConfiguration:
            continue
        res = np.sqrt(((cand.transform(kp) - kc) ** 2).sum(axis=1))
        inl = res < inlier_threshold_px
        count = int(inl.sum())
        if count > best_count:
            best_count = count
            best_inliers = inl
            w = count / mk
            if w >= 1.0:
                break
            denom = np.log1p(-(w ** 2))
            if denom < 0.0:
                needed = int(np.ceil(np.log(1.0 - confidence) / denom))

    if best_count < 2 or best_inliers is None:
        raise NoConsensus(f"best consensus has {best_count} pairs (need >= 2)")

    model = fit_similarity(kp[best_inliers], kc[best_inliers])
    res = np.sqrt(((model.transform(p) - c) ** 2).sum(axis=1))
    mask_sorted = keep & (res < inlier_threshold_px)

    mask = np.zeros(n, dtype=bool)
    mask[order] = mask_sorted
    return model, mask
