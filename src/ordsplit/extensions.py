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

from .actions import Action, FiniteTableAction, ProductAction, TrivialAction, validate_action
from .cones import (
    Cone,
    ConeGenerators,
    ExtensionalCone,
    FullCone,
    GeneratedCone,
    LexCone,
    OrthantCone,
    PointProductCone,
    PreorderedGroup,
    ProductCone,
    TrivialCone,
    check_cone_axioms,
    cone_subset,
    is_monotone,
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
)
from .homs import (
    Homomorphism,
    IdentityHom,
    KernelHom,
    ProjectionHom,
    SectionHom,
    TableHom,
    check_homomorphism,
)
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    Window,
    for_all_members,
    no,
    on_generators,
    unknown,
    vall,
    vand,
    yes,
)

INF = math.inf


def semidirect(X: Group, B: Group, action: Action) -> Semidirect:
    """Validated twisted carrier; raises with a witness on an action-law failure."""
    carrier = Semidirect(X, B, action)
    v = validate_action(action)
    if v.is_no:
        raise StructureError(f"action law violated: {v.note} at {format_element(v.witness)}")
    return carrier


@dataclass(frozen=True)
class ExtensionShape:
    """A split extension before any order is chosen upstairs."""

    x: PreorderedGroup
    b: PreorderedGroup
    action: Action

    def __post_init__(self):
        if self.action.acted != self.x.group or self.action.acting != self.b.group:
            raise StructureError("action does not match the kernel/base groups")

    @cached_property
    def carrier(self) -> Semidirect:
        return Semidirect(self.x.group, self.b.group, self.action)

    def __str__(self):
        return f"{self.x} x|_{self.action} {self.b}"


@dataclass(frozen=True)
class SplitExtension(ExtensionShape):
    """A point: a shape with a chosen candidate cone on its carrier."""

    cone: Cone

    def __post_init__(self):
        super().__post_init__()
        if self.cone.group != self.carrier:
            raise ShapeError("cone does not live on the twisted carrier")

    @property
    def pre(self) -> PreorderedGroup:
        return PreorderedGroup(self.carrier, self.cone)

    def __str__(self):
        return f"({self.x} -> {self.carrier}, {self.cone}) <-> {self.b}"


def product_cone(shape: ExtensionShape) -> ProductCone:
    return ProductCone(shape.carrier, shape.x.cone, shape.b.cone)


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


def pointwise_sim_id(
    h: Homomorphism, x_pre: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Is h(x) ~ x for every x?  Exact on scalars, finite, and f.g. abelian data."""
    s = h.as_scalar()
    if s is not None:
        if s == 1:
            return yes("identity scalar")
        if isinstance(x_pre.cone, FullCone):
            return yes("full order")
        one = x_pre.group.generators()[0]
        v = x_pre.sim(h.apply(one), one, budget)
        if v.is_no:
            return no(one, f"scaling by {s} moves a generator")
        # (s-1)x must land in the units subgroup for every x.  One generator
        # decides this over Z (units are closed under integer multiples) and
        # over the standard cones on Q (whose units are trivial, forcing s=1).
        if isinstance(x_pre.cone, (OrthantCone, TrivialCone)) or isinstance(
            x_pre.group, FreeAbelian
        ):
            return v
        # Exotic cones on Q: one point is not conclusive, fall through.
    G = x_pre.group
    if G.is_finite:
        for x in G.elements():
            v = x_pre.sim(h.apply(x), x, budget)
            if not v.is_yes:
                return no(x, "automorphism moves an element") if v.is_no else v
        return yes("exhaustive")
    if isinstance(G, (FreeAbelian, DirectProduct)) and G.is_abelian():
        # d(x) = h(x)-x is additive, and units form a subgroup, so group
        # generators decide the whole carrier.
        return on_generators(
            G.generators(), lambda g: x_pre.sim(h.apply(g), g, budget),
            "automorphism moves a generator", "on group generators",
        )
    return for_all_members(
        G.window_elements(budget.window), None, lambda x: x_pre.sim(h.apply(x), x, budget),
        "automorphism moves an element", "pointwise comparison hit undecided memberships",
        yes("window-verified", budget_used=(("window", budget.window.int_bound),)),
    )


def compatible_exists(
    shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Does any compatible order exist upstairs?

    Checks monotonicity of phi on +/- base generators (compositions of
    monotone maps stay monotone) and the pointwise condition on units of the
    base; a Yes carries the lexicographic cone as certificate.
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
    units = units_subgroup(shape.b, budget)
    pending = None
    for u in units.generators:
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
    closure is a GeneratedCone over it.
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
    return GeneratedCone(shape.carrier, ConeGenerators(prod), certified_compatible=True)


def _closed_finite_shape(shape: ExtensionShape) -> None:
    """Refuse a finite carrier whose kernel or base cone is not closed.

    In a closed cone on a finite group every positive element has finite
    order, so it is a unit: no base element is strictly positive, the lex
    cone is the componentwise set, and the compatible interval holds that
    one set.  On a set that is not a cone the interval means nothing.
    """
    for what, pre in (("kernel", shape.x), ("base", shape.b)):
        if not pre.cone.known_cone():
            raise StructureError(f"the {what} cone {pre.cone} of a finite carrier is not closed")


def _product_shape_components(shape: ExtensionShape):
    act = shape.action
    if not isinstance(act, ProductAction):
        return None
    if not (isinstance(shape.x.cone, ProductCone) and isinstance(shape.b.cone, ProductCone)):
        return None
    x1 = PreorderedGroup(act.first.acted, shape.x.cone.x_cone)
    x2 = PreorderedGroup(act.second.acted, shape.x.cone.b_cone)
    b1 = PreorderedGroup(act.first.acting, shape.b.cone.x_cone)
    b2 = PreorderedGroup(act.second.acting, shape.b.cone.b_cone)
    return ExtensionShape(x1, b1, act.first), ExtensionShape(x2, b2, act.second)


def is_minimal_equal_product(
    shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Least cone equals the componentwise cone iff positives act pointwise ~ id."""
    v = compatible_exists(shape, budget)
    if not v.is_yes:
        raise StructureError(f"no compatible order known: {v}")
    gens, note = shape.b.cone.finite_generators(), "on positive generators"
    if gens is None:
        gens, note = shape.b.cone.positive_sample(budget.window, budget), "window-verified"
    v = vall(
        (b, pointwise_sim_id(shape.action.as_hom(b), shape.x, budget))
        for b in gens
        if not shape.action.is_identity_for(b)
    )
    if v.is_no:
        return no(v.witness, "positive base element acts nontrivially")
    return yes(note) if v.is_yes else v


COMPATIBILITY_MODES = ("interval", "definitional")


def is_compatible(
    P: Cone,
    shape: ExtensionShape,
    mode: str = "interval",
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Compatibility of a candidate cone, by the route that `mode` names.

    "interval": the cone axioms and componentwise <= P <= lexicographic.
    "definitional": the cone axioms, the kernel inclusion, section and
    projection monotone, and the fibre order reflected.  The paper proves the
    two equivalent; only the named route is computed, and the tests check
    that the routes never contradict each other.
    """
    if P.group != shape.carrier:
        raise ShapeError("cone does not live on the extension's carrier")
    if mode not in COMPATIBILITY_MODES:
        raise StructureError(f"unknown mode {mode!r}")
    axioms = check_cone_axioms(P, budget)
    if mode == "interval":
        return vand(
            axioms,
            cone_subset(product_cone(shape), P, budget),
            cone_subset(P, lex_cone(shape), budget),
        )
    carrier_pre = PreorderedGroup(shape.carrier, P)
    return vand(
        axioms,
        is_monotone(KernelHom(shape.carrier), shape.x, carrier_pre, budget),
        is_monotone(SectionHom(shape.carrier), shape.b, carrier_pre, budget),
        is_monotone(ProjectionHom(shape.carrier), carrier_pre, shape.b, budget),
        _kernel_reflects(P, shape, budget),
    )


def _kernel_reflects(P: Cone, shape: ExtensionShape, budget) -> Verdict:
    bz = shape.b.group.zero()
    v = for_all_members(
        shape.x.group.window_elements(budget.window),
        lambda x: P.contains((x, bz), budget),
        lambda x: shape.x.cone.contains(x, budget),
        "fibre order not reflected", "reflection check hit undecided memberships",
        yes("window-verified" if not shape.x.group.is_finite else "exhaustive"),
    )
    return no((v.witness, bz), v.note) if v.is_no else v


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
    already a pair carrier with its standard structure maps.
    """
    window = Window()
    if f.source != A or s.target != A or k.target != A:
        raise StructureError("structure maps do not match the total group")
    B, X = f.target, k.source
    if s.source != B:
        raise StructureError("section must come from the cokernel target")
    for b in B.window_elements(window):
        if f.apply(s.apply(b)) != b:
            raise StructureError(f"f(s(b)) != b at b={format_element(b)}")
    if A.is_finite:
        return _normalize_finite(A, f, s, k)
    if isinstance(A, (Semidirect, DirectProduct)):
        action = A.action if isinstance(A, Semidirect) else TrivialAction(
            A.factors[1], A.factors[0]
        )
        for x in X.window_elements(window):
            if k.apply(x) != (x, B.zero()):
                raise StructureError("kernel map is not the standard inclusion")
        theta = IdentityHom(A)
        return action, theta
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
        mapping = {}
        for x in X.elements():
            conj = A.add(A.add(sb, k.apply(x)), A.neg(sb))
            if conj not in kernel_image:
                raise StructureError(f"conjugate of the kernel leaves the kernel at {(b, x)}")
            mapping[x] = kernel_image[conj]
        action_table[b] = TableHom.from_dict(X, X, mapping)
    action = FiniteTableAction.from_homs(B, X, action_table)
    carrier = Semidirect(X, B, action)
    theta_map = {}
    for a in A.elements():
        fa = f.apply(a)
        xpart = A.add(a, A.neg(s.apply(fa)))
        theta_map[a] = (kernel_image[xpart], fa)
    theta = TableHom.from_dict(A, carrier, theta_map)
    chk = check_homomorphism(theta)
    if not chk.is_yes:
        raise StructureError(f"theta fails additivity at {chk.witness}")
    if len(set(theta_map.values())) != A.order():
        raise StructureError("theta is not bijective")
    return action, theta


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


@dataclass(frozen=True)
class FamilyCone(Cone):
    """A candidate cone on a shape's carrier described fibrewise over B:
    (x, b) is in it iff x is in the fibre over b.

    Fibres exist for every base element; away from the base positives they
    are empty (condition 1 forces this, so storing them costs nothing).
    """

    shape: ExtensionShape
    sets: UpSetFibers | ExplicitFibers

    @property
    def group(self) -> Semidirect:
        return self.shape.carrier

    contains = Cone.contains

    def _contains(self, el, budget):
        x, b = el
        return yes() if self.sets.contains(b, x) else no(el)

    def __str__(self):
        return f"family({self.sets})"


def cone_to_family(
    P: Cone,
    shape: ExtensionShape,
    window: Window | None = None,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> FamilyCone:
    """Window snapshot of a cone as explicit fibres X_b = {x : (x,b) in P}."""
    if isinstance(P, FamilyCone):
        return P
    window = window or budget.window
    fibers = []
    for b in shape.b.group.window_elements(window):
        fib = frozenset(
            x
            for x in shape.x.group.window_elements(window)
            if P.contains((x, b), budget).is_yes
        )
        fibers.append((b, fib))
    return FamilyCone(shape, ExplicitFibers(tuple(sorted(fibers, key=repr))))


@dataclass(frozen=True)
class FamilyValidation:
    conditions: Verdict
    orbit_remark: Verdict


def validate_family(fam: FamilyCone, budget: SaturationBudget = DEFAULT_BUDGET) -> FamilyValidation:
    """The four fibrewise conditions, plus the orbit consequence reported apart.

    (1) nonempty iff base-positive iff contains 0; (2) fibre over 0 is the
    fibre cone; (3) X_b + phi_b(X_b') inside X_{b+b'}; (4) conjugation
    stability.  Up-set families over a trivial action check (3) exactly as
    threshold superadditivity.
    """
    window = budget.window
    # Each base element is asked about once; every condition reads the answers.
    B = fam.shape.b
    base_in = {b: B.cone.contains(b, budget) for b in B.group.window_elements(window)}
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
        vx = X.cone.contains(x, budget)
        if vx.is_unknown:
            return vx
        return yes() if vx.is_yes == sets.contains(bz, x) else no(x)

    v = for_all_members(
        base_in, None, support_matches,
        "fibre support must match the base positives (condition 1)", undecided,
        yes("window-verified" if not B.group.is_finite else "exhaustive"),
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


def _family_conjugation(fam, base_in, positives, window) -> Verdict:
    B, X, action, sets = fam.shape.b, fam.shape.x, fam.shape.action, fam.sets
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
    """phi_a(X_b) = X_{a+b-a} on window samples."""
    B, action, sets = fam.shape.b, fam.shape.action, fam.sets
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
    return yes("window-verified" if not B.group.is_finite else "exhaustive")


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
    # Every enumerated cone is compatible; a No names the first that is not.
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
    only = ExtensionalCone(
        carrier, frozenset(x for x in carrier.elements() if prod.contains(x).is_yes)
    )
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
        isinstance(shape.x.group, FreeAbelian)
        and shape.x.group.rank == 1
        and isinstance(shape.b.group, FreeAbelian)
        and shape.b.group.rank == 1
        and shape.action.provably_trivial()
        and isinstance(shape.x.cone, OrthantCone)
        and isinstance(shape.b.cone, OrthantCone)
    ):
        raise StructureError(
            "superadditive scope needs the trivially-acted (Z,N) over (Z,N) extension"
        )
    seqs = superadditive_sequences(scope.length, scope.max_value)
    budget = SaturationBudget(2, 4, Window(max(3, scope.length), 8, 4))
    labels = []
    cones = []
    checks = []
    for seq in seqs:
        cones.append(FamilyCone(shape, UpSetFibers((0,) + seq)))
        labels.append(_seq_label(seq))
        checks.append((labels[-1], validate_family(cones[-1], budget).conditions))
    pool = set(seqs)
    meets = True
    for a in seqs:
        for b in seqs:
            m = tuple(min(x, y) for x, y in zip(a, b))
            if m not in pool:
                meets = False
    joins = True
    for a in seqs:
        for b in seqs:
            j = _superadditive_closure(tuple(max(x, y) for x, y in zip(a, b)))
            if j not in pool:
                joins = False
    return LatticeReport(
        scope=str(scope),
        labels=tuple(labels),
        cones=tuple(cones),
        count=len(seqs),
        meets_closed=meets,
        joins_closed_in_window=joins,
        compatible=vall(checks),
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
