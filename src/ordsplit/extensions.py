"""Split extensions of preordered groups and their compatible orders.

A compatible order on X x| B is one making the kernel inclusion, projection,
and section monotone with the fibre order reflected; such cones sit exactly
between the componentwise cone and the lexicographic cone, and exist iff every
phi_b is monotone and units of B act by pointwise-equivalent automorphisms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .actions import Action, FiniteTableAction, ProductAction, TrivialAction
from .cones import (
    Cone,
    ExtensionalCone,
    FibreCone,
    FullCone,
    GeneratedCone,
    LexCone,
    OrthantCone,
    PointProductCone,
    ProductCone,
    TrivialCone,
    check_cone_axioms,
    cone_subset,
    fibrewise,
    format_preordered,
    is_monotone,
    membership,
    units_subgroup,
)
from .groups import (
    DirectProduct,
    Element,
    FreeAbelian,
    Group,
    Semidirect,
    ShapeError,
    StructureError,
    format_element,
    greedy_generators,
)
from .homs import (
    Homomorphism,
    IdentityHom,
    TableHom,
    check_homomorphism,
    first_difference,
)
from .linalg import identity_matrix
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    Window,
    clean_scan,
    for_all_members,
    no,
    on_generators,
    unknown,
    vand,
    yes,
)

INF = math.inf


@dataclass(frozen=True)
class ExtensionShape:
    """A split extension before any order is chosen upstairs."""

    x: Cone
    b: Cone
    action: Action

    def __post_init__(self):
        if self.action.acted != self.x.group or self.action.acting != self.b.group:
            raise StructureError("action does not match the kernel/base groups")

    @cached_property
    def carrier(self) -> Semidirect:
        return Semidirect(self.x.group, self.b.group, self.action)

    def __str__(self):
        return f"{format_preordered(self.x)} x|_{self.action} {format_preordered(self.b)}"


@dataclass(frozen=True)
class SplitExtension(ExtensionShape):
    """A point: a shape with a chosen candidate cone on its carrier."""

    cone: Cone

    def __post_init__(self):
        super().__post_init__()
        if self.cone.group != self.carrier:
            raise ShapeError("cone does not live on the twisted carrier")

    def __str__(self):
        x, b = format_preordered(self.x), format_preordered(self.b)
        return f"({x} -> {self.carrier}, {self.cone}) <-> {b}"


def product_cone(shape: ExtensionShape) -> ProductCone:
    return ProductCone(shape.carrier, shape.x, shape.b)


def lex_cone(shape: ExtensionShape) -> LexCone:
    return LexCone(shape.carrier, shape.x, shape.b)


def point(shape: ExtensionShape, cone: Cone | str = "product") -> SplitExtension:
    if isinstance(cone, str):
        if cone == "product":
            cone = product_cone(shape)
        elif cone == "lex":
            cone = lex_cone(shape)
        elif cone == "minimal":
            cone = minimal_cone(shape)
        else:
            raise StructureError(f"unknown cone tag {cone!r}")
    return SplitExtension(shape.x, shape.b, shape.action, cone)


def _generated_by_generators(G: Group) -> bool:
    """Is G generated by G.generators()?  Z^k, finite groups and their products are; Q^k is not."""
    if isinstance(G, DirectProduct):
        return all(_generated_by_generators(f) for f in G.factors)
    return G.is_finite or isinstance(G, FreeAbelian)


def pointwise_sim_id(
    h: Homomorphism, x_cone: Cone, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Is h(x) ~ x for every x?  Exact on finite and f.g. abelian carriers, and
    on linear maps under the full, orthant and trivial cones."""
    G = x_cone.group
    inside = membership(x_cone)

    def sim(x):
        # h(x) ~ x: -h(x)+x and -x+h(x) in the cone, as x_cone.sim asks.
        hx = h.apply(x)
        return vand(inside(G.add(G.neg(hx), x), budget), inside(G.add(G.neg(x), hx), budget))

    if G.is_finite:
        els = G.elements()
    else:
        # A linear map under the full cone, and the identity, need no membership call.
        m = h.as_matrix()
        if m is not None and (m == identity_matrix(len(m)) or isinstance(x_cone, FullCone)):
            return yes("full order or identity map")
        # d(x) = h(x)-x is additive and units form a subgroup, so generators
        # decide every x of an abelian carrier they generate.  The orthant and
        # trivial cones have units {0}, so generators decide a linear map under
        # them over Q^k too; elsewhere a moved generator is a No.
        decided = (G.is_abelian() and _generated_by_generators(G)) or (
            m is not None and isinstance(x_cone, (OrthantCone, TrivialCone))
        )
        if decided or m is not None:
            v = on_generators(
                G.generators(), sim,
                "automorphism moves a generator", "on group generators",
            )
            if decided or v.is_no:
                return v
        els = G.window_elements(budget.window)
    return for_all_members(
        els, None, sim,
        "automorphism moves an element", "pointwise comparison hit undecided memberships",
        clean_scan(G, budget.window),
    )


def compatible_exists(
    shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Does any compatible order exist upstairs?

    Checks monotonicity of phi on +/- base generators (compositions of
    monotone maps stay monotone) and the pointwise condition on units of the
    base (none to scan when the action is provably trivial); a Yes carries
    the lexicographic cone as certificate.
    """
    for g in shape.b.group.generators():
        for b in (g, shape.b.group.neg(g)):
            h = shape.action.as_hom(b)
            v = is_monotone(h, shape.x, shape.x, budget)
            if v.is_no:
                return no(
                    (b, v.witness),
                    f"phi_{format_element(b)} is not monotone",
                )
            if v.is_unknown:
                return unknown(f"monotonicity of phi_{format_element(b)} undecided")
    if not shape.action.provably_trivial():
        units = units_subgroup(shape.b, budget)
        walk = units.generators
        if units.exact and shape.b.group.is_finite and shape.x.known_cone():
            # Every phi_b is monotone now, so the b with phi_b ~ id form a
            # subgroup: generators picked from the units in their order decide
            # it, and the first unit outside it is picked.  A full cone lists
            # group generators, from which no pick succeeds: they are walked.
            picked = greedy_generators(shape.b.group, list(units.generators))
            walk = walk if picked is None else picked
        pending = None
        for u in walk:
            for b in (u, shape.b.group.neg(u)):
                if shape.action.is_identity_for(b):
                    continue
                v = pointwise_sim_id(shape.action.as_hom(b), shape.x, budget)
                if v.is_no:
                    return no(
                        (b, v.witness),
                        f"unit {format_element(b)} acts without being pointwise equivalent to id",
                    )
                if v.is_unknown and pending is None:
                    pending = v
        if pending is not None:
            return pending
        if not units.exact:
            return unknown("units of the base are only window-known")
    return Verdict(
        yes().state,
        lex_cone(shape),
        "lexicographic cone is compatible",
    )


def minimal_cone(shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET) -> Cone:
    """The least compatible cone: generated by the componentwise cone.

    Closedness is decided here, once: a componentwise cone that is already
    a cone (trivial twist, closed components) is its own closure and is
    returned as it is, and so is the componentwise cone on a finite carrier,
    the only compatible cone there (see _closed_finite_shape); otherwise the
    closure is a FibreCone over it where fibrewise holds, else a GeneratedCone.
    """
    if shape.carrier.is_finite:
        _closed_finite_shape(shape)
    v = compatible_exists(shape, budget)
    if not v.is_yes:
        raise StructureError(f"no compatible order known: {v}")
    split = _product_shape_components(shape)
    if split is not None:
        # Closure acts coordinatewise on a product of extensions, so the
        # least cone is the pairing of the component least cones.
        first, second = split
        return PointProductCone(
            shape.carrier, minimal_cone(first, budget), minimal_cone(second, budget)
        )
    prod = product_cone(shape)
    if prod.known_cone() or shape.carrier.is_finite:
        return prod
    if fibrewise(shape.carrier, prod):
        return FibreCone(shape.carrier, prod)
    return GeneratedCone(shape.carrier, prod)


def _closed_finite_shape(shape: ExtensionShape) -> None:
    """Refuse a finite carrier whose kernel or base cone is not closed.

    In a closed cone on a finite group every positive element has finite
    order, so it is a unit: no base element is strictly positive, the lex
    cone is the componentwise set, and the compatible interval holds that
    one set.  On a set that is not a cone the interval means nothing.
    """
    for what, cone in (("kernel", shape.x), ("base", shape.b)):
        if not cone.known_cone():
            raise StructureError(f"the {what} cone {cone} of a finite carrier is not closed")


def _product_shape_components(shape: ExtensionShape):
    act = shape.action
    if not isinstance(act, ProductAction):
        return None
    x, b = shape.x, shape.b
    if not (isinstance(x, ProductCone) and isinstance(b, ProductCone)):
        return None
    return (ExtensionShape(x.x_cone, b.x_cone, act.first),
            ExtensionShape(x.b_cone, b.b_cone, act.second))


def is_compatible(
    P: Cone, shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Is the candidate cone P on X x| B compatible?

    The paper shows that P makes the kernel inclusion, section and
    projection monotone with the fibre order reflected exactly when P is a
    cone between the componentwise cone and the lexicographic cone; this
    checks that interval.  The tests hold it against the definitional route
    (`definitional_compatible` in tests/helpers.py).
    """
    if P.group != shape.carrier:
        raise ShapeError("cone does not live on the extension's carrier")
    return vand(
        check_cone_axioms(P, budget),
        cone_subset(product_cone(shape), P, budget),
        cone_subset(P, lex_cone(shape), budget),
    )


# --- normalization of raw split extension data -------------------------------


def normalize(
    A: Group,
    f: Homomorphism,
    s: Homomorphism,
    k: Homomorphism,
) -> tuple[Action, Homomorphism]:
    """Recover the action and the comparison isomorphism from raw data.

    The action is conjugation by the section through the kernel; theta sends
    a to (a - sf(a), f(a)).  Supported inputs: finite A, or an A that is
    already a pair carrier with its standard structure maps.  The maps must
    be homomorphisms: then generators decide f s = id and k, and once k maps
    X onto the fibre of f over 0, theta is an isomorphism (splitting lemma).
    """
    if f.source != A or s.target != A or k.target != A:
        raise StructureError("structure maps do not match the total group")
    B, X = f.target, k.source
    if s.source != B:
        raise StructureError("section must come from the cokernel target")
    for name, h in (("projection", f), ("section", s), ("kernel", k)):
        v = yes() if h.additive_by_construction() else check_homomorphism(h)
        if not v.is_yes:
            raise StructureError(f"{name} map is not a homomorphism: {v}")
    b = first_difference(B, lambda b: f.apply(s.apply(b)), lambda b: b)
    if b is not None:
        raise StructureError(f"f(s(b)) != b at b={format_element(b)}")
    if A.is_finite:
        return _normalize_finite(A, f, s, k)
    if isinstance(A, (Semidirect, DirectProduct)):
        if first_difference(X, k.apply, lambda x: (x, B.zero())) is not None:
            raise StructureError("kernel map is not the standard inclusion")
        action = A.action if isinstance(A, Semidirect) else TrivialAction(A.factors[1], A.factors[0])
        return action, IdentityHom(A)
    raise StructureError(f"cannot normalize data over {A}")


def _normalize_finite(A, f, s, k):
    B, X = f.target, k.source
    kernel_image = {}
    for x in X.elements():
        a = k.apply(x)
        if a in kernel_image:
            raise StructureError("kernel map is not injective")
        kernel_image[a] = x
    fiber = {a for a in A.elements() if f.apply(a) == B.zero()}
    if set(kernel_image) != fiber:
        raise StructureError("kernel image differs from the fibre of f over 0")
    action_table = {}
    for b in B.elements():
        sb = s.apply(b)
        conj = {x: kernel_image[A.add(A.add(sb, k.apply(x)), A.neg(sb))] for x in X.elements()}
        action_table[b] = TableHom.from_dict(X, X, conj)
    action = FiniteTableAction.from_homs(B, X, action_table)
    carrier = Semidirect(X, B, action)
    theta_map = {}
    for a in A.elements():
        fa = f.apply(a)
        xpart = A.add(a, A.neg(s.apply(fa)))
        theta_map[a] = (kernel_image[xpart], fa)
    return action, TableHom.from_dict(A, carrier, theta_map)


# --- cone families ------------------------------------------------------------


@dataclass(frozen=True)
class UpSetFibers:
    """Fibres over Z encoded by thresholds: X_j = { n : n >= -x_j }.

    x_0 must be 0; entries may be math.inf (full fibre); indices beyond the
    stored range count as inf, negative indices as empty.
    """

    thresholds: tuple

    def __post_init__(self):
        if not self.thresholds or self.thresholds[0] != 0:
            raise StructureError("threshold sequence must start with x_0 = 0")
        for t in self.thresholds:
            if t is not INF and (not isinstance(t, int) or t < 0):
                raise StructureError(f"thresholds live in N plus infinity, got {t!r}")

    def threshold(self, j: int):
        if j < 0:
            return None
        if j < len(self.thresholds):
            return self.thresholds[j]
        return INF

    def nonempty(self, j: int) -> bool:
        return j >= 0

    def contains(self, j: int, n: int) -> bool:
        t = self.threshold(j)
        if t is None:
            return False
        return t is INF or n >= -t

    def sample(self, j: int, window: Window) -> list[int]:
        return [n for n in window.ints() if self.contains(j, n)]

    def __str__(self):
        body = ",".join("inf" if t is INF else str(t) for t in self.thresholds)
        return f"upsets[{body}]"


@dataclass(frozen=True)
class ExplicitFibers:
    """Finite fibres listed per base element; unspecified fibres are empty."""

    fibers: tuple[tuple[Element, frozenset], ...]

    @cached_property
    def _table(self) -> dict:
        return dict(self.fibers)

    def nonempty(self, b) -> bool:
        return bool(self._table.get(b))

    def contains(self, b, x) -> bool:
        return x in self._table.get(b, frozenset())

    def sample(self, b, window: Window) -> list:
        els = self._table.get(b, frozenset())
        return sorted((x for x in els if _fits_window(x, window)), key=repr)

    def __str__(self):
        return f"fibers({len(self.fibers)})"


def _fits_window(x, window: Window) -> bool:
    if isinstance(x, tuple):
        return all(_fits_window(c, window) for c in x)
    if isinstance(x, Fraction):
        return abs(x.numerator) <= window.num_bound and x.denominator <= window.den_bound
    if isinstance(x, int):
        return abs(x) <= window.int_bound
    return True


def _over_z(shape: ExtensionShape) -> bool:
    return all(isinstance(G, FreeAbelian) and G.rank == 1 for G in (shape.x.group, shape.b.group))


@dataclass(frozen=True)
class FamilyCone(Cone):
    """A candidate cone on a shape's carrier described fibrewise over B:
    (x, b) is in it iff x is in the fibre over b.

    Fibres exist for every base element; away from the base positives they
    are empty (condition 1 forces this, so storing them costs nothing).
    Up-set fibres are integer up-sets indexed by integers, so they need a
    Z kernel and a Z base.
    """

    shape: ExtensionShape
    sets: UpSetFibers | ExplicitFibers

    def __post_init__(self):
        if isinstance(self.sets, UpSetFibers) and not _over_z(self.shape):
            raise StructureError("threshold fibres need kernel Z and base Z")

    @property
    def group(self) -> Semidirect:
        return self.shape.carrier

    contains = Cone.contains

    def _contains(self, el, budget):
        x, b = el
        return yes() if self.sets.contains(b, x) else no(el)

    def __str__(self):
        return f"family({self.sets})"


@dataclass(frozen=True)
class FamilyValidation:
    conditions: Verdict
    orbit_remark: Verdict


def validate_family(fam: FamilyCone, budget: SaturationBudget = DEFAULT_BUDGET) -> FamilyValidation:
    """The four fibrewise conditions, plus the orbit consequence reported apart.

    (1) nonempty iff base-positive iff contains 0; (2) fibre over 0 is the
    fibre cone; (3) X_b + phi_b(X_b') inside X_{b+b'}; (4) conjugation
    stability.  Up-set families over a trivial action check (3) exactly as
    threshold superadditivity; a trivial action over abelian groups passes
    (4) and the orbit remark without a scan.
    """
    window = budget.window
    # Each base element is asked about once; every condition reads the answers.
    B = fam.shape.b
    base_in = {b: B.contains(b, budget) for b in B.group.window_elements(window)}
    positives = [b for b, v in base_in.items() if v.is_yes]
    cond = _family_conditions(fam, base_in, positives, window, budget)
    remark = _family_orbit_remark(fam, base_in, positives, window)
    return FamilyValidation(cond, remark)


def _family_conditions(fam, base_in, positives, window, budget) -> Verdict:
    B, X, sets = fam.shape.b, fam.shape.x, fam.sets
    bz = B.group.zero()
    undecided = "family conditions hit undecided memberships"

    def support_matches(b):
        nonempty = sets.nonempty(b)
        vb = base_in[b]
        if vb.is_unknown:
            return vb
        has_zero = sets.contains(b, X.group.zero())
        return yes() if nonempty == vb.is_yes == has_zero else no(b)

    def zero_fibre_matches(x):
        vx = X.contains(x, budget)
        if vx.is_unknown:
            return vx
        return yes() if vx.is_yes == sets.contains(bz, x) else no(x)

    v = for_all_members(
        base_in, None, support_matches,
        "fibre support must match the base positives (condition 1)", undecided,
        clean_scan(fam.group, window),
    )
    if v.is_no:
        return v
    v = for_all_members(
        X.group.window_elements(window), None, zero_fibre_matches,
        "fibre over 0 must be the fibre cone (condition 2)", undecided, v,
    )
    if v.is_no:
        return v
    for check in (_family_addition, _family_conjugation):
        w = check(fam, base_in, positives, window)
        if w.is_no:
            return w
        if w.is_unknown:
            v = unknown(undecided)
    return v


def _family_addition(fam, base_in, positives, window) -> Verdict:
    B, X, action, sets = fam.shape.b, fam.shape.x, fam.shape.action, fam.sets
    if isinstance(sets, UpSetFibers) and action.provably_trivial():
        failure = _superadditive_failure(sets.thresholds)
        if failure is not None:
            return no(failure, "threshold superadditivity fails (condition 3)")
        return yes("threshold superadditivity")
    for b1 in positives:
        for b2 in positives:
            target = B.group.add(b1, b2)
            for x1 in sets.sample(b1, window):
                for x2 in sets.sample(b2, window):
                    val = X.group.add(x1, action.apply(b1, x2))
                    if not sets.contains(target, val):
                        return no(((x1, b1), (x2, b2)), "fibre addition escapes (condition 3)")
    return yes()


def _untwisted(fam, *groups) -> bool:
    """A provably trivial action over abelian groups: a+b-a = b and every
    phi_a is the identity, so the conjugate fibre X_{a+b-a} is X_b itself."""
    return fam.shape.action.provably_trivial() and all(G.is_abelian() for G in groups)


def _family_conjugation(fam, base_in, positives, window) -> Verdict:
    """x + phi_a(y) - phi_{a+b-a}(x) in X_{a+b-a} for y in X_b (condition 4).

    Untwisted over an abelian base and kernel the target is b, both maps are
    the identity and the residue x + y - x is y, drawn from X_b: every
    sample passes, for threshold and explicit fibres alike.
    """
    B, X, action, sets = fam.shape.b, fam.shape.x, fam.shape.action, fam.sets
    if _untwisted(fam, B.group, X.group):
        return yes()
    xs = X.group.window_elements(window)
    samples = {b: sets.sample(b, window) for b in positives}
    for a in base_in:
        for b in positives:
            target = B.group.add(B.group.add(a, b), B.group.neg(a))
            phi_t = action.as_hom(target)
            for x in xs:
                tx = phi_t.apply(x)
                for y in samples[b]:
                    val = X.group.add(x, action.apply(a, y))
                    # need val in X_target + phi_target(x)
                    residue = X.group.sub(val, tx)
                    if not sets.contains(target, residue):
                        return no(
                            ((x, a), (y, b)),
                            "conjugation stability fails (condition 4)",
                        )
    return yes()


def _family_orbit_remark(fam, base_in, positives, window) -> Verdict:
    """phi_a(X_b) = X_{a+b-a} on window samples.

    Untwisted over an abelian base both sides are X_b (phi_a = id, a+b-a =
    b), so each sample y or z lies in the fibre it was drawn from.
    """
    B, action, sets = fam.shape.b, fam.shape.action, fam.sets
    if _untwisted(fam, B.group):
        return yes("trivial action: phi_a(X_b) = X_b")
    for a in base_in:
        for b in positives:
            target = B.group.add(B.group.add(a, b), B.group.neg(a))
            for y in sets.sample(b, window):
                if not sets.contains(target, action.apply(a, y)):
                    return no((a, b, y), "orbit image escapes the conjugate fibre")
            for z in sets.sample(target, window):
                back = action.apply(B.group.neg(a), z)
                if not sets.contains(b, back):
                    return no((a, b, z), "conjugate fibre not covered by the orbit image")
    return clean_scan(fam.group, window)


# --- enumeration of compatible cones ------------------------------------------


@dataclass(frozen=True)
class ExhaustiveFinite:
    def __str__(self):
        return "exhaustive-finite"


@dataclass(frozen=True)
class SuperadditiveWindow:
    length: int
    max_value: int

    def __str__(self):
        return f"superadditive({self.length},{self.max_value})"


@dataclass(frozen=True)
class LatticeReport:
    scope: str
    labels: tuple[str, ...]
    cones: tuple[Cone, ...]
    count: int
    meets_closed: bool
    joins_closed_in_window: bool
    # Every enumerated cone is compatible: both scopes list compatible cones only.
    compatible: Verdict
    notes: str = ""


def enumerate_compatible_cones(shape: ExtensionShape, scope) -> LatticeReport:
    if isinstance(scope, ExhaustiveFinite):
        return _enumerate_finite(shape)
    if isinstance(scope, SuperadditiveWindow):
        return _enumerate_superadditive(shape, scope)
    raise StructureError(f"unsupported enumeration scope {scope!r}")


def _enumerate_finite(shape: ExtensionShape) -> LatticeReport:
    carrier = shape.carrier
    if not carrier.is_finite:
        raise StructureError("exhaustive scope needs a finite carrier")
    _closed_finite_shape(shape)
    prod = product_cone(shape)
    inside = membership(prod)
    members = frozenset(x for x in carrier.elements() if inside(x, DEFAULT_BUDGET).is_yes)
    only = ExtensionalCone(carrier, members)
    cones = (only,) if only.known_cone() else ()
    return LatticeReport(
        scope=str(ExhaustiveFinite()),
        labels=tuple(format_element(tuple(sorted(c.elements, key=repr))) for c in cones),
        cones=cones,
        count=len(cones),
        # A family of at most one cone is closed under meets and joins.
        meets_closed=True,
        joins_closed_in_window=True,
        compatible=yes(),
        notes="finite carriers collapse the interval: no strictly positive base elements",
    )


def _superadditive_failure(x) -> tuple[int, int] | None:
    """The first (i, j) with x[i+j] < x[i] + x[j], or None when x is superadditive."""
    n = len(x)
    for i in range(1, n):
        for j in range(1, n - i):
            if x[i + j] < x[i] + x[j]:
                return i, j
    return None


def superadditive_sequences(length: int, max_value: int) -> list[tuple]:
    """All threshold sequences x_1..x_length over {0..max_value, inf} with
    x_{i+j} >= x_i + x_j (x_0 = 0 implicit)."""
    values = list(range(max_value + 1)) + [INF]
    out = [
        seq
        for seq in itertools.product(values, repeat=length)
        if _superadditive_failure((0,) + seq) is None
    ]
    out.sort(key=lambda s: tuple((t is INF, t if t is not INF else 0) for t in s))
    return out


def _enumerate_superadditive(shape: ExtensionShape, scope: SuperadditiveWindow) -> LatticeReport:
    if not (
        _over_z(shape)
        and shape.action.provably_trivial()
        and isinstance(shape.x, OrthantCone)
        and isinstance(shape.b, OrthantCone)
    ):
        raise StructureError(
            "superadditive scope needs the trivially-acted (Z,N) over (Z,N) extension"
        )
    seqs = superadditive_sequences(scope.length, scope.max_value)
    labels = tuple(_seq_label(seq) for seq in seqs)
    cones = tuple(FamilyCone(shape, UpSetFibers((0,) + seq)) for seq in seqs)
    pool = set(seqs)
    joins = True
    for a in seqs:
        for b in seqs:
            j = _superadditive_closure(tuple(max(x, y) for x, y in zip(a, b)))
            if j not in pool:
                joins = False
    return LatticeReport(
        scope=str(scope),
        labels=labels,
        cones=cones,
        count=len(seqs),
        # m = min(x, y) is superadditive, as m[i+j] >= min(x[i]+x[j],
        # y[i]+y[j]) >= m[i]+m[j], and stays in {0..max_value, inf}.
        meets_closed=True,
        joins_closed_in_window=joins,
        # Under the trivial action the support and the fibre over 0 are N
        # (conditions 1 and 2), superadditivity is condition 3, and
        # condition 4 holds untwisted.
        compatible=yes(),
        notes="fibres are up-sets encoded by threshold sequences",
    )


def _seq_label(seq) -> str:
    return "(" + ",".join("inf" if t is INF else str(t) for t in seq) + ")"


def _superadditive_closure(seq: tuple) -> tuple:
    x = [0] + list(seq)
    n = len(x) - 1
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            for j in range(1, n + 1 - i):
                need = x[i] + x[j]
                if x[i + j] < need:
                    x[i + j] = need
                    changed = True
    return tuple(x[1:])
