"""Counting diameter lines of dilates and the quasi-polynomial structure.

LD(P, k) is the number of lattice diameter lines of the dilate kP. For all
large k, LD agrees with a piecewise linear function of k with one linear
piece per residue class mod q, where q is the denominator of the maximal
normalized chord length over the diameter lines of P, the longest chord of
P, which the dilation profile keeps with its chord table. The regime usually
starts at k = q but can start later: a chord that is not asymptotically
longest may still tie for small dilates, so the fitter recovers the pieces
from exact samples, verifies them, and reports the first sampled k from
which every later sample matches. It does so in integers: a piece is the
line through the last two samples of its residue class, each sample is
checked against it by cross-multiplication, and Fractions are built only
for the pieces it reports. The chamber decomposition explains the
counts inside one parallelogram chamber by splitting its parallel lattice
lines into translated blocks of q plus a fixed remainder; its vertices may
be rational, but its rows are counted against floored, integer constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd
from typing import Sequence

from .core import Direction, Polygon2, RationalPoint, level_interval
from .diameter import DilationProfile, dilation_profile
from .errors import BudgetError, FitError, ValidationError
from .frozen import Frozen

__all__ = [
    "QuasiPolynomial",
    "BlockDecomposition",
    "count_diameter_lines",
    "check_dilate_budget",
    "fit_quasipolynomial",
    "chamber_decomposition",
]


class QuasiPolynomial(Frozen):
    """A degree <= 1 quasi-polynomial: one (slope, intercept) piece per residue.

    evaluate(k) is slope * k + intercept for the piece at k mod period, exact
    and integral for every k >= valid_from.
    """

    _fields = ("period", "pieces", "valid_from")

    def __init__(
        self, period: int, pieces: tuple[tuple[Fraction, Fraction], ...], valid_from: int
    ):
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "valid_from", valid_from)

    def evaluate(self, k: int) -> int:
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        slope, intercept = self.pieces[k % self.period]
        value = slope * k + intercept
        if value.denominator != 1 or value < 0:
            raise FitError(
                f"piece for residue {k % self.period} is not integral at k={k}"
            )
        return int(value)


class BlockDecomposition(Frozen):
    """Per-residue block structure of the parallel diameter lines of a chamber.

    For k = i (mod q) the kw + 1 parallel lattice lines meeting the dilated
    chamber split into blocks(k) = floor((kw + 1) / q) translated blocks, each
    holding n_i diameter lines, plus rem_i leftover lines holding r_i of them:
    count(k) = n_i * blocks(k) + r_i. per_residue is indexed by i and stores
    (n_i, r_i, rem_i).
    """

    _fields = ("q", "w", "per_residue")

    def __init__(self, q: int, w: int, per_residue: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "per_residue", per_residue)

    def blocks(self, k: int) -> int:
        return (k * self.w + 1) // self.q

    def count(self, k: int) -> int:
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        n_i, r_i, _ = self.per_residue[k % self.q]
        return n_i * self.blocks(k) + r_i


def count_diameter_lines(P: Polygon2, k: int) -> int:
    """Number of lattice diameter lines of the dilate kP, exactly.

    Reads the best count and the diameter directions of kP from the dilation
    profile of P and counts the diameter levels of each direction in closed
    form; kP is never built, and the work does not grow with k.
    """
    return dilation_profile(P).count(k)


def check_dilate_budget(k_max: int, budget: int) -> None:
    """Raise BudgetError when sampling the dilates k = 1..k_max exceeds budget."""
    if k_max > budget:
        raise BudgetError(
            f"{k_max} dilates to sample, over the budget of {budget}"
        )


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def fit_quasipolynomial(
    P: Polygon2,
    k_max: int | None = None,
    budget: int | None = None,
    profile: DilationProfile | None = None,
) -> QuasiPolynomial:
    """Fit and verify the diameter line count of dilates of P up to k_max.

    The candidate period q is the denominator of the maximal normalized
    chord length over the diameter lines of P
    (DilationProfile.longest_chord). k_max must cover at least three full
    periods beyond q so that every residue class has fit and verification
    samples. Passing None starts at that minimum and doubles the window
    while the samples have not yet settled into one linear piece per
    residue; an explicit k_max is never extended. The result uses the
    minimal verified period (a divisor of q) and the smallest sampled k from
    which every later sample matches; that start can exceed q when a chord
    that is not asymptotically longest still ties for small dilates. Every
    count comes from one dilation profile of P, built here unless the caller
    passes dilation_profile(P) as profile, in one range call per sample
    horizon, profile.counts(range(1, horizon + 1)); the profile keeps each
    count, so neither a doubled window nor a fit after ld-count's table
    recounts a dilate. With a budget, a sample horizon over it (the first
    one, each doubling or k_max) raises BudgetError before any sample of it
    is taken.
    """
    if profile is None:
        profile = dilation_profile(P)
    # The longest chord of P lies on a vertex line of a diameter direction,
    # and that line is itself a diameter line; the profile's chord table
    # holds it, in lowest terms.
    _, q = profile.longest_chord
    explicit = k_max is not None
    if explicit and k_max < 4 * q:
        raise FitError(
            f"k_max={k_max} is too small: need at least 4q = {4 * q} samples"
        )
    horizon = k_max if explicit else 4 * q
    cap = max(16 * q, 64)
    while True:
        if budget is not None:
            check_dilate_budget(horizon, budget)
        counts = [0, *profile.counts(range(1, horizon + 1))]
        # per residue, (delta, c1, k1) from its last two samples k1 and
        # k1 + q: the piece is c1 + delta (k - k1) / q
        pieces: list[tuple[int, int, int]] = []
        for residue in range(q):
            k2 = horizon - (horizon - residue) % q
            k1 = k2 - q
            pieces.append((counts[k2] - counts[k1], counts[k1], k1))
        valid_from = horizon + 1
        for k in range(horizon, 0, -1):
            delta, c1, k1 = pieces[k % q]
            if delta * (k - k1) == q * (counts[k] - c1):
                valid_from = k
            else:
                break
        # the top 2q samples merely restate the fit; demand one more full
        # period of agreement below them before trusting the pieces
        if valid_from <= horizon - 3 * q + 1:
            break
        if explicit or horizon >= cap:
            raise FitError(
                f"samples disagree with the fitted pieces at k={valid_from - 1}"
                f" even with k_max={horizon}"
            )
        horizon = min(2 * horizon, cap)
    # slope delta / q and intercept (q c1 - delta k1) / q share the
    # denominator q, so pieces are equal when their numerators are
    numerators = [(delta, q * c1 - delta * k1) for delta, c1, k1 in pieces]
    # reduce to the minimal period dividing q
    period = q
    for m in _divisors(q):
        if all(numerators[i] == numerators[i % m] for i in range(q)):
            period = m
            break
    return QuasiPolynomial(
        period=period,
        pieces=tuple(
            (Fraction(slope, q), Fraction(intercept, q))
            for slope, intercept in numerators[:period]
        ),
        valid_from=valid_from,
    )


def _as_fraction_point(p: Sequence) -> RationalPoint:
    try:
        return tuple(Fraction(c) for c in p)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad rational point {p!r}") from exc


def chamber_decomposition(
    vertices: Sequence[Sequence], u: Direction | Sequence[int]
) -> BlockDecomposition:
    """Block decomposition of a normalized parallelogram chamber.

    The chamber must be a rational parallelogram with two edges parallel to
    u = (1, 0), each containing an integral vertex. q is the y-part of the
    primitive transverse edge direction, w the integer height. n_i and r_i are
    counted directly on the representative dilate k = q + i, and the block
    structure (all blocks equal) is verified along the way.
    """
    d = u if isinstance(u, Direction) else Direction(u)
    if d.vec != (1, 0):
        raise ValidationError(
            "chamber decomposition expects the normalized direction (1, 0)"
        )
    pts = [_as_fraction_point(p) for p in vertices]
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValidationError("a chamber needs 4 distinct vertices")
    if any(len(p) != 2 for p in pts):
        raise ValidationError("chamber vertices must be 2-dimensional")
    # order into a parallelogram cycle: opposite pairs sum equally
    cycle = None
    for perm in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
        a, b, c, e = (pts[i] for i in perm)
        if (a[0] + c[0], a[1] + c[1]) == (b[0] + e[0], b[1] + e[1]):
            cycle = (a, b, c, e)
            break
    if cycle is None:
        raise ValidationError("vertices do not form a parallelogram")
    ys = sorted({p[1] for p in cycle})
    if len(ys) != 2:
        raise ValidationError("chamber edges must be horizontal (direction u)")
    y_bot, y_top = ys
    bottom = sorted(p for p in cycle if p[1] == y_bot)
    top = sorted(p for p in cycle if p[1] == y_top)
    if len(bottom) != 2 or len(top) != 2:
        raise ValidationError("chamber must have two horizontal edges")
    for edge in (bottom, top):
        if not any(p[0].denominator == 1 and p[1].denominator == 1 for p in edge):
            raise ValidationError("each horizontal edge needs an integral vertex")
    if y_bot.denominator != 1 or y_top.denominator != 1:
        raise ValidationError("horizontal edges must sit at integer heights")
    w = int(y_top - y_bot)
    if w < 1:
        raise ValidationError("chamber height must be a positive integer")
    # transverse direction: bottom[j] -> top[j]; primitive integer form
    dx = top[0][0] - bottom[0][0]
    dy = top[0][1] - bottom[0][1]
    if (top[1][0] - bottom[1][0], top[1][1] - bottom[1][1]) != (dx, dy):
        raise ValidationError("transverse edges are not parallel")
    denom = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    ix, iy = int(dx * denom), int(dy * denom)
    g = gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if iy < 0:
        ix, iy = -ix, -iy
    q = iy
    if q < 1:
        raise ValidationError("transverse direction must leave the horizontal")
    y0 = int(y_bot)
    # <(iy, -ix), x> is constant along a transverse edge: L on the left edge
    # (through bottom[0]) and R on the right one; both may be Fractions. An
    # integer point x has <n, x> <= c exactly when <n, x> <= floor(c), so
    # the rows are clipped against the floored constants of the dilate.
    L = iy * bottom[0][0] - ix * bottom[0][1]
    R = iy * bottom[1][0] - ix * bottom[1][1]
    per_residue: list[tuple[int, int, int]] = []
    for i in range(q):
        k = q + i  # representative with at least one full block
        total_lines = k * w + 1
        sides = [((-iy, ix), floor(-k * L)), ((iy, -ix), floor(k * R))]
        counts = []
        for j in range(total_lines):
            row = level_interval(sides, (0, k * y0 + j), (1, 0))
            counts.append(0 if row is None else row[1] - row[0] + 1)
        peak = max(counts)
        flags = [c == peak for c in counts]
        blocks = total_lines // q
        rem = total_lines - blocks * q
        if rem != (i * w + 1) % q:
            raise ValidationError("remainder bookkeeping failed; bad chamber?")
        n_i = sum(flags[:q])
        for t in range(1, blocks):
            if sum(flags[t * q : (t + 1) * q]) != n_i:
                raise ValidationError(
                    "blocks are not translates; the input is not a chamber"
                )
        r_i = sum(flags[blocks * q :])
        per_residue.append((n_i, r_i, rem))
    return BlockDecomposition(q=q, w=w, per_residue=tuple(per_residue))
