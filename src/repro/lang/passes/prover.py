"""Symbolic inter-iteration dependence prover (ROADMAP item 1).

Per xloop, decides whether the annotated dependence pattern is
actually true: "no inter-iteration dependence" (``uc``),
"register-carried only" (``or``), or "memory ordering required"
(``om``/``ua``) — emitting per-pair certificates or a concrete
counterexample iteration pair ``(i, j, addr)``.

Pipeline per loop:

1. translate every array subscript into a :class:`~.prover_core.Poly`
   over the induction variable, auxiliary inner-loop counters,
   AMO-claim slots, and opaque loop-invariant symbols (with forward
   substitution of single-assignment scalars, so ``int base = f*2*ns;``
   resolves);
2. for every same-array pair with at least one write, try an
   *independence proof*: AMO-claim windows, interval unsatisfiability,
   strong-SIV forcing (equal addresses imply the same iteration),
   exact linear diophantine, and a recursive quotient/remainder
   mod-K split for symbolic strides (optionally cross-checked by the
   ``z3`` extra);
3. failing that, recognized *assumption regimes* (AMO atomicity,
   test-and-update guards, AMO-synchronized worklists) mirror the racy
   idioms the conformance harness already treats as nondeterministic;
4. failing that, a *bounded model check* (interval branch-and-prune
   over small trip counts) searches for a minimal concrete
   counterexample.

Verdicts: ``proved`` (every pair certified independent, or memory is
architecturally ordered by the LSQ for ``om``/``orm``), ``assumed``
(sound only under the listed assumption regimes — the contract racy
``uc``/``ua`` kernels already rely on), ``refuted`` (a concrete
counterexample contradicts the pragma), ``unknown``.

Also exports :func:`auto_annotate_unit` (the compiler's
``annotate="auto"`` mode), the registry-wide gate
:func:`prove_all` behind ``repro prove``, and :func:`fuzz_prover`
(prover-vs-brute-force differential fuzzing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ast_nodes import (AddrOf, Assign, Binary, Call, Decl, Expr, ExprStmt,
                         For, If, Index, IntLit, Return, Unary, Var, While,
                         walk_exprs, walk_stmts)
from ..lexer import CompileError
from ..sema import AMO_BUILTINS
from . import prover_core as core
from .depend import _BodyScan, _canonical_loop, expr_key
from .prover_core import Poly

#: atom for the annotated loop's induction variable (pre-pairing)
IVAR = "$i"
#: per-side induction atoms after pairing: iteration i vs iteration j
X, Y = "$x", "$y"


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """Concrete counterexample: iterations *i* != *j* of a *trip*-count
    run touch the same element of *array*."""

    array: str
    i: int
    j: int
    subscript: int               # colliding element index
    trip: int                    # loop trip count
    bound_name: Optional[str]    # symbol carrying the trip count, if any
    symbols: Dict[str, int]      # other loop-invariant symbol values
    a_line: int = 0
    b_line: int = 0

    def __str__(self):
        env = ", ".join("%s=%d" % (k, v)
                        for k, v in sorted(self.symbols.items()))
        return ("iterations (i=%d, j=%d) both touch %s[%d] at trip "
                "count %d%s" % (self.i, self.j, self.array,
                                self.subscript, self.trip,
                                " with " + env if env else ""))


@dataclass
class PairCert:
    """Per-access-pair certificate."""

    array: str
    a: str                       # access descriptions
    b: str
    status: str                  # independent | assumed | dependent | unknown
    reason: str
    witness: Optional[Witness] = None

    @property
    def rule(self):
        return self.reason.split(":", 1)[0]


@dataclass
class LoopProof:
    """Proof record for one loop."""

    function: str
    line: int
    annotation: Optional[str]
    emitted: Optional[str]       # mnemonic from the dependence pass
    verdict: str                 # proved | assumed | refuted | unknown
    minimal: str                 # prover's minimal data pattern
    mem_status: str              # independent | assumed | dependent | unknown
    reasons: Tuple[str, ...] = ()
    pairs: List[PairCert] = field(default_factory=list)
    cirs: Tuple[str, ...] = ()
    counterexample: Optional[Witness] = None
    notes: Tuple[str, ...] = ()

    @property
    def ok(self):
        return self.verdict in ("proved", "assumed")

    def describe(self):
        head = "%s:%d %s -> %s (%s" % (
            self.function, self.line, self.emitted or "<unannotated>",
            self.verdict, "minimal %s" % self.minimal)
        if self.reasons:
            head += "; assumes " + ", ".join(self.reasons)
        head += ")"
        lines = [head]
        for note in self.notes:
            lines.append("  note: %s" % note)
        if self.counterexample is not None:
            lines.append("  counterexample: %s" % self.counterexample)
        return "\n".join(lines)

    def describe_pairs(self):
        return "\n".join("  [%s] %s  ~  %s\n      %s"
                         % (p.status, p.a, p.b, p.reason)
                         for p in self.pairs)


# ---------------------------------------------------------------------------
# symbolic body scan
# ---------------------------------------------------------------------------

@dataclass
class SymAccess:
    base_sid: int
    base_name: str
    poly: Optional[Poly]         # element-index polynomial, or unknown
    is_write: bool
    is_amo: bool
    guarded: bool                # write guarded by a test of the same cell
    aux: Tuple[str, ...]         # enclosing auxiliary-loop atoms
    line: int
    desc: str


class _SymScan:
    """Translate a loop body into symbolic memory accesses.

    Scalars defined exactly once get forward-substituted; canonical
    inner ``for`` loops become auxiliary range variables; ``amo_add``
    on a loop-invariant counter becomes a claim atom with a known
    reservation window.  Anything else is an unknown (None) poly,
    handled by the assumption regimes."""

    def __init__(self, ivar, written, defs):
        self.ivar = ivar
        self.written = written
        self.defs = defs
        self.env: Dict[object, Optional[Poly]] = {}
        self.aux_env: Dict[object, str] = {}
        self.atom_of: Dict[object, str] = {}
        self.accesses: List[SymAccess] = []
        self.aux_ranges: Dict[str, Tuple[Optional[Poly],
                                         Optional[Poly]]] = {}
        self.claims: Dict[str, int] = {}
        self.has_amo = False
        self._names = set()
        self._aux_n = 0
        self._claim_n = 0
        self._guards: List[Expr] = []
        self._aux_stack: List[str] = []

    # -- atoms -------------------------------------------------------------

    def atom(self, sym):
        if sym not in self.atom_of:
            name = sym.name
            if name in self._names:
                name = "%s#%d" % (sym.name, sym.sid)
            self._names.add(name)
            self.atom_of[sym] = name
        return self.atom_of[sym]

    # -- expression translation --------------------------------------------

    def poly(self, expr):
        if expr is None:
            return None
        if isinstance(expr, IntLit):
            return Poly.const(expr.value)
        if isinstance(expr, Var):
            sym = expr.symbol
            if sym == self.ivar:
                return Poly.var(IVAR)
            if sym in self.aux_env:
                return Poly.var(self.aux_env[sym])
            if sym in self.env:
                return self.env[sym]
            if sym in self.written:
                return None          # mutated in the body, unmodeled
            return Poly.var(self.atom(sym))
        if isinstance(expr, Unary) and expr.op == "-":
            p = self.poly(expr.operand)
            return None if p is None else -p
        if isinstance(expr, Binary) and expr.op in ("+", "-", "*", "<<"):
            left = self.poly(expr.left)
            right = self.poly(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right.is_const and 0 <= right.const_value < 32:
                return left * (1 << right.const_value)
            return None
        return None

    # -- statement walk ----------------------------------------------------

    def run(self, stmts):
        self._stmts(stmts)

    def _stmts(self, stmts):
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt):
        if isinstance(stmt, Decl):
            init = stmt.init
            if isinstance(init, Call) and init.name in AMO_BUILTINS:
                window = self._claim_window(init)
                self._amo(init)
                if window is not None and self.defs.get(stmt.symbol) == 1:
                    atom = "%s@c%d" % (stmt.name, self._claim_n)
                    self._claim_n += 1
                    self.claims[atom] = window
                    self.env[stmt.symbol] = Poly.var(atom)
                else:
                    self.env[stmt.symbol] = None
                return
            self._reads(init)
            if init is not None and self.defs.get(stmt.symbol) == 1:
                self.env[stmt.symbol] = self.poly(init)
            else:
                self.env[stmt.symbol] = None
        elif isinstance(stmt, Assign):
            self._reads(stmt.value)
            target = stmt.target
            if isinstance(target, Index):
                self._reads(target.subscript)
                self._access(target, is_write=True)
        elif isinstance(stmt, ExprStmt):
            self._reads(stmt.expr)
        elif isinstance(stmt, If):
            self._reads(stmt.cond)
            self._guards.append(stmt.cond)
            self._stmts(stmt.then)
            self._guards.pop()
            self._stmts(stmt.orelse)
        elif isinstance(stmt, While):
            self._reads(stmt.cond)
            self._stmts(stmt.body)
        elif isinstance(stmt, For):
            self._for(stmt)
        elif isinstance(stmt, Return):
            self._reads(stmt.value)

    def _for(self, stmt):
        try:
            ivar2, bound = _canonical_loop(stmt)
        except CompileError:
            # non-canonical inner loop: values unknown, accesses still real
            if stmt.init is not None:
                self._stmt(stmt.init)
            self._reads(stmt.cond)
            self._stmts(stmt.body)
            if stmt.step is not None:
                self._stmt(stmt.step)
            return
        init = stmt.init
        lo_expr = init.init if isinstance(init, Decl) else init.value
        lo, hi = self.poly(lo_expr), self.poly(bound)
        self._reads(lo_expr)
        self._reads(bound)
        atom = "%s@%d" % (ivar2.name, self._aux_n)
        self._aux_n += 1
        self.aux_ranges[atom] = (lo, hi)
        prev = self.aux_env.get(ivar2)
        self.aux_env[ivar2] = atom
        self._aux_stack.append(atom)
        self._stmts(stmt.body)
        self._aux_stack.pop()
        if prev is None:
            del self.aux_env[ivar2]
        else:
            self.aux_env[ivar2] = prev

    # -- access recording --------------------------------------------------

    def _reads(self, expr):
        if not isinstance(expr, Expr):
            return
        if isinstance(expr, Index):
            self._reads(expr.subscript)
            self._access(expr, is_write=False)
            return
        if isinstance(expr, Call):
            if expr.name in AMO_BUILTINS:
                self._amo(expr)
                return
            for arg in expr.args:
                self._reads(arg)
            return
        for name in ("operand", "left", "right", "base", "subscript"):
            child = getattr(expr, name, None)
            if isinstance(child, Expr):
                self._reads(child)

    def _amo(self, call):
        self.has_amo = True
        target = call.args[0]
        if isinstance(target, AddrOf) and isinstance(target.operand, Index):
            node = target.operand
            self._reads(node.subscript)
            self._access(node, is_write=True, is_amo=True)
        else:
            self._reads(target)
            self.accesses.append(SymAccess(
                -1, "<ptr>", None, True, True, False,
                tuple(self._aux_stack), call.line,
                "amo write <ptr>[?] (line %d)" % call.line))
        for arg in call.args[1:]:
            self._reads(arg)

    def _claim_window(self, call):
        """Reservation window of an ``amo_add`` claiming distinct slots
        from a loop-invariant counter, or None."""
        if call.name != "amo_add" or len(call.args) < 2:
            return None
        incr = call.args[1]
        if not isinstance(incr, IntLit) or incr.value < 1:
            return None
        target = call.args[0]
        if not (isinstance(target, AddrOf)
                and isinstance(target.operand, Index)):
            return None
        counter = self.poly(target.operand.subscript)
        if counter is None or any(_per_iteration(a)
                                  for a in counter.atoms()):
            return None
        return incr.value

    def _access(self, node, is_write, is_amo=False):
        base = node.base
        sid = base.symbol.sid if isinstance(base, Var) else -1
        name = base.symbol.name if isinstance(base, Var) else "<expr>"
        p = self.poly(node.subscript)
        guarded = False
        if is_write and not is_amo and self._guards:
            key = expr_key(node)
            guarded = any(isinstance(n, Index) and expr_key(n) == key
                          for cond in self._guards
                          for n in walk_exprs(cond))
        desc = "%s%s %s[%s] (line %d)" % (
            "amo " if is_amo else "", "write" if is_write else "read",
            name, "?" if p is None else repr(p), node.line)
        self.accesses.append(SymAccess(sid, name, p, is_write, is_amo,
                                       guarded, tuple(self._aux_stack),
                                       node.line, desc))


def _per_iteration(atom):
    """Atoms carrying per-iteration values (induction, aux counters,
    claim slots) vs. opaque loop-invariant symbols."""
    return "$" in atom or "@" in atom


def _side(p, side):
    """Rename per-iteration atoms for one side of a pair (iteration x
    vs iteration y of the annotated loop)."""
    mapping = {}
    for atom in p.atoms():
        if atom == IVAR:
            mapping[atom] = Poly.var(X if side == "a" else Y)
        elif _per_iteration(atom):
            mapping[atom] = Poly.var(atom + "$" + side)
    return p.subst(mapping)


def _lb_from_gap(d):
    """From a known constraint ``d >= 1`` over ``k*s + c``, derive the
    implied symbol lower bound ``(s, ceil((1-c)/k))`` — or None."""
    terms = dict(d.terms)
    c = terms.pop((), 0)
    if len(terms) != 1:
        return None
    (mono, k), = terms.items()
    if len(mono) != 1 or k < 1 or _per_iteration(mono[0]):
        return None
    return mono[0], -((c - 1) // k)


# ---------------------------------------------------------------------------
# pair proofs
# ---------------------------------------------------------------------------

def _forces_eq(p, lbs):
    """``p = 0`` implies ``x = y``: p is ``c*(x - y)`` with c provably
    nonzero (the strong-SIV argument, symbolic strides included)."""
    split = p.linear_split({X, Y})
    if split is None:
        return False
    coefs, rest = split
    if rest.terms:
        return False
    cx = coefs.get(X, Poly())
    cy = coefs.get(Y, Poly())
    if (cx + cy).terms or not cx.terms:
        return False
    if cx.is_const:
        return cx.const_value != 0
    return core.poly_pos(cx, lbs) or core.poly_pos(-cx, lbs)


def _indep(diff, ranges, lbs, depth):
    """Try to prove ``diff = 0`` has no solution with ``x != y`` over
    the symbolic iteration box.  Returns ``(proved, reason)``."""
    if not diff.terms:
        return False, ""             # identically zero: always aliases
    if core.eq_unsat(diff, ranges, lbs):
        return True, ("interval: address difference provably nonzero "
                      "over the iteration box")
    if _forces_eq(diff, lbs):
        return True, ("strong SIV: equal addresses force the same "
                      "iteration")
    split = diff.linear_split({X, Y})
    if split is None:
        return False, ""
    coefs, rest = split
    cx = coefs.get(X, Poly())
    cy = coefs.get(Y, Poly())
    # exact integer weak-SIV/MIV: linear diophantine over all of Z
    if (cx.is_const and cy.is_const and rest.is_const
            and (cx.terms or cy.terms)):
        if not core.pair_dependent_over_z(cx.const_value, cy.const_value,
                                          rest.const_value):
            return True, ("diophantine: gcd(%d, %d) does not divide %d"
                          % (cx.const_value, cy.const_value,
                             rest.const_value))
    # quotient/remainder split on a common stride K:
    #   diff = K*(x - y) + rest = K*(x - y + q) + r  with  -K < r < K
    # forces both  r = 0  and  x - y + q = 0.
    if depth > 0 and not (cx + cy).terms and cx.terms:
        single = cx.single_term()
        if single is not None:
            c, mono = single
        elif cx.is_const and abs(cx.const_value) > 1:
            c, mono = cx.const_value, ()
        else:
            c = None
        if c is not None:
            stride = cx if c > 0 else -cx
            if core.poly_pos(stride, lbs):
                rest_n = rest if c > 0 else -rest
                q, r = core.divmod_term(rest_n, abs(c), mono)
                bounds = core.linear_bounds(r, ranges, lbs)
                if bounds is not None:
                    mn, mx = bounds
                    if (core.poly_nonneg(mn + stride - Poly.const(1), lbs)
                            and core.poly_nonneg(
                                stride - mx - Poly.const(1), lbs)):
                        part2 = Poly.var(X) - Poly.var(Y) + q
                        for part in (r, part2):
                            ok, why = _indep(part, ranges, lbs, depth - 1)
                            if ok:
                                return True, ("mod-%r split: %s"
                                              % (stride, why))
    return False, ""


def _claim_match(p, claims):
    """``(claim_atom, offset)`` when *p* is ``slot + d`` with
    ``0 <= d < window`` for an AMO-claim slot."""
    for atom in p.atoms():
        if atom in claims:
            rest = p - Poly.var(atom)
            if rest.is_const and 0 <= rest.const_value < claims[atom]:
                return atom, rest.const_value
    return None


def _has_claims(polys, claims):
    return any(p is not None and p.atoms() & set(claims) for p in polys)


def _bmc(poly_a, poly_b, acc_a, acc_b, array, ranges, lbs, bound_poly,
         bound_atom):
    """Bounded model check: enumerate small symbol values and trip
    counts, solving for a concrete colliding iteration pair via the
    interval core.  Ordering makes the witness minimal: smallest trip
    count, then smallest ``max(i, j)``."""
    diff = poly_a - poly_b
    atoms = set(diff.atoms()) | set(bound_poly.atoms())
    aux = set()
    for v, (lo, hi) in ranges.items():
        if v in (X, Y):
            continue
        if lo is None or hi is None:
            return None              # unbounded auxiliary: no search
        atoms |= lo.atoms() | hi.atoms()
        aux.add(v)
    aux &= atoms | set()
    aux = {v for v in ranges if v not in (X, Y)}
    syms = sorted(a for a in atoms
                  if not _per_iteration(a) and a not in aux)
    if len(syms) > 3:
        return None
    # symbols that cancel out of the difference (both sides index
    # a[w - 1], say) cannot decide a collision: pin each to its
    # smallest admissible value so the witness subscript is concrete
    pinned = {a: max(lbs.get(a, 0), 0)
              for a in poly_a.atoms() | poly_b.atoms()
              if a not in atoms and not _per_iteration(a)
              and a not in aux}
    # candidate symbol environments, smallest trip count first
    import itertools
    starts = {s: max(lbs.get(s, 0), 0) for s in syms}
    envs = []
    for combo in itertools.product(*(range(starts[s], starts[s] + 4)
                                     for s in syms)):
        env = dict(zip(syms, combo))
        env.update(pinned)
        trip = bound_poly.evaluate(env) if bound_poly.atoms() <= set(env) \
            else None
        if trip is None or not 2 <= trip <= 12:
            continue
        envs.append((trip, combo, env))
    for trip, _, env in sorted(envs, key=lambda e: (e[0], e[1])):
        for m in range(1, trip):
            for i, j in ([(t, m) for t in range(m)]
                         + [(m, t) for t in range(m)]):
                full = dict(env)
                full[X], full[Y] = i, j
                point = {a: Poly.const(v) for a, v in full.items()}
                residual = diff.subst(point)
                domains = {}
                ok = True
                for v in aux:
                    lo, hi = ranges[v]
                    if not (lo.atoms() <= set(full)
                            and hi.atoms() <= set(full)):
                        ok = False
                        break
                    lov, hiv = lo.evaluate(full), hi.evaluate(full) - 1
                    domains[v] = (lov, min(hiv, lov + 24))
                if not ok:
                    continue
                if not residual.atoms() <= set(domains):
                    continue
                if domains:
                    sol = core.solve_eqs([residual], domains)
                    if sol is None:
                        continue
                    full.update(sol)
                elif residual.evaluate({}) != 0:
                    continue
                return Witness(
                    array=array, i=i, j=j,
                    subscript=poly_a.evaluate(full), trip=trip,
                    bound_name=bound_atom,
                    symbols={s: env[s] for s in sorted(env)
                             if s != bound_atom},
                    a_line=acc_a.line, b_line=acc_b.line)
    return None


def _prove_pair(a, b, scan, bound_poly, bound_atom, lbs0, dynamic):
    """Certificate for one same-array access pair."""
    array = a.base_name if a.base_sid != -1 else b.base_name

    def cert(status, reason, wit=None):
        return PairCert(array, a.desc, b.desc, status, reason, wit)

    lbs = dict(lbs0)
    hi = None if (dynamic or bound_poly is None) else bound_poly
    ranges = {X: (Poly.const(0), hi), Y: (Poly.const(0), hi)}
    known = (a.poly is not None and b.poly is not None
             and a.base_sid != -1 and b.base_sid != -1)
    if known:
        poly_a, poly_b = _side(a.poly, "a"), _side(b.poly, "b")
        for side, acc in (("a", a), ("b", b)):
            for atom in acc.aux:
                lo, ahi = scan.aux_ranges[atom]
                ranges[atom + "$" + side] = (
                    None if lo is None else _side(lo, side),
                    None if ahi is None else _side(ahi, side))
                if lo is not None and ahi is not None:
                    # the pair exists only if this inner loop runs
                    got = _lb_from_gap(ahi - lo)
                    if got is not None:
                        sym, v = got
                        lbs[sym] = max(lbs.get(sym, v), v)
        ca = _claim_match(a.poly, scan.claims)
        cb = _claim_match(b.poly, scan.claims)
        if ca is not None and cb is not None and ca[0] == cb[0]:
            return cert("independent",
                        "amo-claim: both addresses lie inside the "
                        "disjoint window [slot, slot+%d) reserved per "
                        "iteration by an AMO fetch-add on a fixed "
                        "counter" % scan.claims[ca[0]])
        ok, why = _indep(poly_a - poly_b, ranges, lbs, depth=3)
        if ok:
            return cert("independent", why)
        if core.z3_refute(poly_a - poly_b, ranges, lbs, (X, Y)):
            return cert("independent",
                        "z3: equal-address query unsatisfiable")
    # recognized racy idioms (assumption regimes)
    if a.is_amo and b.is_amo:
        return cert("assumed",
                    "amo-atomic: both accesses are AMOs; soundness "
                    "relies on the operation commuting across "
                    "iterations")
    writes = [m for m in (a, b) if m.is_write]
    if writes and all(m.is_amo for m in writes):
        return cert("assumed",
                    "amo-read: a plain read races only with atomic "
                    "updates of the same cell (monotone counter "
                    "idiom)")
    if writes and all(m.is_amo or m.guarded for m in writes):
        return cert("assumed",
                    "test-and-update: every plain write is guarded by "
                    "a test of the same location (benign monotone "
                    "update idiom)")
    # bounded model check for a concrete counterexample
    if (known and not dynamic and bound_poly is not None
            and not _has_claims((a.poly, b.poly), scan.claims)):
        wit = _bmc(poly_a, poly_b, a, b, array, ranges, lbs,
                   bound_poly, bound_atom)
        if wit is not None:
            return cert("dependent",
                        "counterexample found by bounded model check",
                        wit)
    if scan.has_amo:
        return cert("assumed",
                    "worklist-racy: unresolved data-dependent "
                    "addressing in an AMO-synchronized loop; races "
                    "are part of the kernel's contract")
    return cert("unknown",
                "no decision: address not affine-resolvable and no "
                "recognized idiom applies")


# ---------------------------------------------------------------------------
# loop-level proof
# ---------------------------------------------------------------------------

_PRAGMA = object()


def prove_loop(loop, function="?", annotation=_PRAGMA):
    """Prove one (sema-analyzed) ``For`` loop's dependence pattern.

    With the default *annotation* sentinel the loop's own pragma and
    emitted mnemonic are certified; pass ``annotation=None`` for the
    pre-annotation query ``annotate="auto"`` uses."""
    ann = loop.annotation if annotation is _PRAGMA else annotation
    xloop = getattr(loop, "xloop", None)
    emitted = xloop.mnemonic if xloop is not None else None
    try:
        ivar, bound = _canonical_loop(loop)
    except CompileError as exc:
        return LoopProof(function, loop.line, ann, emitted, "unknown",
                         "om", "unknown",
                         notes=("not a canonical counted loop: %s" % exc,))
    body = _BodyScan(ivar)
    body.scan(loop.body)
    if body.calls:
        return LoopProof(function, loop.line, ann, emitted, "unknown",
                         "om", "unknown",
                         notes=("call to %r in the body" % body.calls[0],))
    bound_sym = bound.symbol if isinstance(bound, Var) else None
    dynamic = bound_sym is not None and bound_sym in body.written
    cirs = (body.read_first & body.written) - {ivar}
    if bound_sym is not None:
        cirs.discard(bound_sym)

    defs: Dict[object, int] = {}
    for stmt in walk_stmts(loop.body):
        tgt = None
        if isinstance(stmt, Decl):
            tgt = stmt.symbol
        elif isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            tgt = stmt.target.symbol
        if tgt is not None:
            defs[tgt] = defs.get(tgt, 0) + 1
    scan = _SymScan(ivar, body.written, defs)
    scan.run(loop.body)

    bound_poly = None if dynamic else scan.poly(bound)
    bound_atom = None
    lbs0: Dict[str, int] = {}
    if bound_poly is not None:
        # a cross-iteration pair exists only when the loop runs twice
        got = _lb_from_gap(bound_poly - Poly.const(1))
        if got is not None:
            lbs0[got[0]] = got[1]
        single = bound_poly.single_term()
        if single is not None and single[0] == 1 and len(single[1]) == 1:
            bound_atom = single[1][0]

    pairs: List[PairCert] = []
    accs = scan.accesses
    for idx, a in enumerate(accs):
        for b in accs[idx:]:
            if not (a.is_write or b.is_write):
                continue
            if (a.base_sid != b.base_sid
                    and a.base_sid != -1 and b.base_sid != -1):
                continue        # distinct arrays never alias (restrict)
            pairs.append(_prove_pair(a, b, scan, bound_poly, bound_atom,
                                     lbs0, dynamic))

    statuses = {p.status for p in pairs}
    if "dependent" in statuses:
        mem_status = "dependent"
    elif "unknown" in statuses:
        mem_status = "unknown"
    elif "assumed" in statuses:
        mem_status = "assumed"
    else:
        mem_status = "independent"
    has_reg = bool(cirs)
    if mem_status == "independent":
        minimal = "or" if has_reg else "uc"
    else:
        minimal = "orm" if has_reg else "om"
    reasons = tuple(sorted({p.rule for p in pairs
                            if p.status == "assumed"}))
    witness = next((p.witness for p in pairs
                    if p.status == "dependent" and p.witness is not None),
                   None)
    notes: List[str] = []

    # mnemonics look like "xloop.om" / "xloop.uc.db": the data pattern
    # is the first component after the "xloop" prefix
    kind = None
    if emitted:
        parts = [p for p in emitted.split(".") if p != "xloop"]
        kind = parts[0] if parts else None
    to_verdict = {"independent": "proved", "assumed": "assumed",
                  "dependent": "refuted", "unknown": "unknown"}
    if kind in ("om", "orm"):
        # memory ordering is enforced architecturally by the LSQ
        verdict = "proved"
        if minimal != kind:
            notes.append("memory is LSQ-ordered; prover minimal data "
                         "pattern is %r (loop may be over-serialized)"
                         % minimal)
    elif kind == "ua":
        verdict = "assumed"
        reasons = tuple(sorted(set(reasons) | {"atomic-commute"}))
    else:
        # uc/or (or the pre-annotation query): the encoding claims no
        # memory ordering is needed, so every pair must be certified
        verdict = to_verdict[mem_status]
    return LoopProof(function, loop.line, ann, emitted, verdict, minimal,
                     mem_status, reasons, pairs,
                     tuple(sorted(c.name for c in cirs)),
                     witness, tuple(notes))


def prove_unit(unit):
    """Prove every annotated loop in a (compiled) unit."""
    proofs = []
    for func in unit.functions:
        for stmt in walk_stmts(func.body):
            if isinstance(stmt, For) and stmt.annotation:
                proofs.append(prove_loop(stmt, function=func.name))
    return proofs


def prove_source(source):
    """Compile annotated MiniC *source* and prove every xloop."""
    from ..compiler import compile_source
    prog = compile_source(source)
    return prove_unit(prog.unit)


# ---------------------------------------------------------------------------
# registry gate (`repro prove`)
# ---------------------------------------------------------------------------

#: kernels whose pragma the prover cannot confirm, with tracked
#: reasons.  The gate FAILS on any unlisted refuted/unknown loop.
#: Deliberately empty: every registered kernel is either proved or
#: carried by a recognized assumption regime.
PRAGMA_WHITELIST: Dict[str, str] = {}


@dataclass
class KernelProof:
    """Proof record for one registered kernel."""

    name: str
    loops: List[LoopProof]
    ok: bool
    whitelisted: bool = False
    detail: str = ""

    @property
    def verdicts(self):
        return tuple(p.verdict for p in self.loops)


def prove_kernel(spec):
    """Cross-check one registered kernel's pragmas against the proof."""
    from ...kernels.registry import get_kernel
    if isinstance(spec, str):
        spec = get_kernel(spec)
    proofs = prove_source(spec.source)
    bad = [p for p in proofs if not p.ok]
    ok = not bad
    if ok:
        detail = "; ".join(
            "%s %s" % (p.emitted, p.verdict)
            + (" (%s)" % ", ".join(p.reasons) if p.reasons else "")
            for p in proofs)
    else:
        detail = "; ".join(p.describe() for p in bad)
    whitelisted = False
    if not ok and spec.name in PRAGMA_WHITELIST:
        ok, whitelisted = True, True
        detail += " [whitelisted: %s]" % PRAGMA_WHITELIST[spec.name]
    return KernelProof(spec.name, proofs, ok, whitelisted, detail)


def prove_all(names=None, progress=None):
    """Prove every (or the named) registered kernels."""
    from ...kernels.registry import ALL_KERNELS, get_kernel
    specs = ([get_kernel(n) for n in names] if names
             else list(ALL_KERNELS))
    results = []
    for spec in specs:
        result = prove_kernel(spec)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


# ---------------------------------------------------------------------------
# annotate="auto" (compiler mode)
# ---------------------------------------------------------------------------

def auto_annotate_unit(unit, skip_lines=()):
    """Annotate unannotated canonical loops with proved patterns.

    Outermost-first: a loop whose memory pairs are all strictly proved
    independent and which carries no cross-iteration scalars becomes
    ``unordered``; otherwise ``ordered`` (the dependence pass then
    derives ``or``/``om``/``orm``/relaxed-``uc``).  ``atomic`` is never
    auto-selected — commutativity is a programmer assertion.  Loops the
    analysis rejects, and loops at *skip_lines* (rejected after code
    generation), are rolled back and their bodies recursed into.
    Returns ``[(loop, annotation, proof)]`` decisions."""
    decisions = []

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, For) and stmt.annotation is None:
                if (stmt.line in skip_lines
                        or not _try_auto(stmt, decisions)):
                    visit(stmt.body)
            elif isinstance(stmt, If):
                visit(stmt.then)
                visit(stmt.orelse)
            elif isinstance(stmt, While):
                visit(stmt.body)
            # already-annotated For: the programmer decided; leave the
            # nest alone (inner loops execute inside lane contexts)

    for func in unit.functions:
        visit(func.body)
    return decisions


def _try_auto(loop, decisions):
    from .depend import analyze_loop
    try:
        _canonical_loop(loop)
    except CompileError:
        return False
    if any(isinstance(s, For) and s.annotation
           for s in walk_stmts(loop.body)):
        return False            # contains a hand-annotated xloop
    proof = prove_loop(loop, annotation=None)
    candidates = ["ordered"]
    if proof.mem_status == "independent" and not proof.cirs:
        # strictly proved race-free: specialize unordered
        candidates.insert(0, "unordered")
    for ann in candidates:
        loop.annotation = ann
        try:
            analyze_loop(loop, None)
        except CompileError:
            loop.annotation = None
            continue
        decisions.append((loop, ann, proof))
        return True
    return False


# ---------------------------------------------------------------------------
# prover-vs-brute-force differential fuzzing (`repro prove --fuzz`)
# ---------------------------------------------------------------------------

_FUZZ_TEMPLATE = """
void kernel(int* a, int n%(extra)s) {
    #pragma xloops ordered
    for (int i = 0; i < n; i = i + 1) {
        a[%(wa)s] = a[%(rb)s] + 1;
    }
}
"""


def _brute(ca, da, cb, db, trip):
    """Brute-force cross-iteration collision among the write
    ``a[ca*i+da]`` and read ``a[cb*j+db]`` (write-write included)."""
    for i in range(trip):
        for j in range(trip):
            if i == j:
                continue
            if ca * i + da == cb * j + db:
                return True
            if ca * i + da == ca * j + da:
                return True
    return False


def fuzz_prover(seed=0, count=100, progress=None):
    """Random affine loops: the prover's verdict must agree with
    brute-force dependence enumeration at small trip counts.  Returns
    a list of disagreement descriptions (empty means clean)."""
    import random
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        ca, cb = rng.randint(-4, 4), rng.randint(-4, 4)
        da, db = rng.randint(-6, 6), rng.randint(-6, 6)
        scaled = rng.random() < 0.25
        if scaled:
            wa = "w*((%d)*i) + (%d)" % (ca, da)
            rb = "w*((%d)*i) + (%d)" % (cb, db)
            extra = ", int w"
        else:
            wa = "(%d)*i + (%d)" % (ca, da)
            rb = "(%d)*i + (%d)" % (cb, db)
            extra = ""
        tag = "case %d (ca=%d da=%d cb=%d db=%d%s)" % (
            case, ca, da, cb, db, " scaled" if scaled else "")
        proof = prove_source(_FUZZ_TEMPLATE
                             % {"wa": wa, "rb": rb, "extra": extra})[0]
        scales = (1, 2, 3) if scaled else (1,)
        brute_any = any(_brute(ca * w, da, cb * w, db, n)
                        for n in range(2, 9) for w in scales)
        if proof.mem_status == "independent" and brute_any:
            failures.append("%s: prover certified independent but brute "
                            "force finds a collision" % tag)
        elif proof.mem_status == "dependent":
            wit = proof.counterexample
            w = wit.symbols.get("w", 1)
            valid = (wit.i != wit.j
                     and 0 <= wit.i < wit.trip
                     and 0 <= wit.j < wit.trip
                     and _brute(ca * w, da, cb * w, db, wit.trip))
            if not valid:
                failures.append("%s: counterexample %s does not "
                                "validate" % (tag, wit))
        if progress is not None:
            progress(case, proof.mem_status)
    return failures
