"""Decision procedures for the bit-blasted CNFs: simulation and a learning core.

Both keep one contract: the input bits of the model returned, variables
2..k + 1, are the least satisfying input valuation, with variable 2 the
most significant, so verdicts and models are fully reproducible. The
learning core returns the lexicographically least model of the clauses,
whose input bits are that valuation (see bitblast); simulation returns that
valuation with the circuit's value in every gate variable.

solve_cnf picks the procedure by whether the blasted formula kept its gate
list, which bitblast does for formulas of at most bitblast.SIM_MAX_INPUT_BITS
(16) input bits:

* With a gate list it simulates the circuit on every input valuation,
  bit-parallel. A chunk packs 4,096 valuations into one Python int per
  variable, one lane per valuation, and each gate is one to three `& | ^`
  operations over the whole chunk (word-parallel simulation, as in
  Kuehlmann et al., "Robust Boolean Reasoning for Equivalence Checking and
  Functional Property Verification", IEEE TCAD 2002). The deadline is
  polled before each chunk. At most 16 chunks decide such a query
  outright: the width-8 miter of (a + 1) * b against a * b + b (16 input
  bits, UNSAT) takes about 2 ms, where the learning core takes about 33 s
  on a 2-core x86-64 host.
* Without one it runs conflict-driven clause learning after Chaff
  (Moskewicz et al., 2001) and MiniSat (Een & Sorensson, 2003):
  two-watched-literal propagation, 1-UIP learning with recursive clause
  minimisation, VSIDS decisions on an indexed heap, Luby restarts, and
  deletion of learned clauses by literal block distance. The deadline is
  polled every 512 steps, a step being a decision or a propagated literal.
  The width-32 miter of minivec's vec_insert, 352 input bits, 9,738
  variables and 23,266 clauses once blasted, is satisfiable; finding its
  least model takes about 0.02 s on a 2-core x86-64 host.

solve_cnf also polls the deadline on entry. Every poll goes through
errors.check_deadline, which raises errors.Timeout once the deadline has
passed, so a result is only ever "sat" or "unsat". search, the learning
core itself, also takes a raw CNF.

How simulation keeps the least-model contract. Input bits take variables
2..k + 1, most significant first, so valuation i gives variable 2 + j bit
k - 1 - j of i. The low 12 bits of i pick the lane and the high bits the
chunk, and chunks run in increasing order, so valuations are tried in
counting order with variable 2 the most significant bit. The first chunk
whose root word is nonzero holds the least satisfying valuation in its
lowest set lane. That lane's bit in every other variable is the gate's
value in the circuit, and the circuit's values satisfy every clause (see
bitblast).

How the learning core keeps it. Call a search *static* when each decision
sets the lowest unassigned variable to false. The core starts static, and
only after STATIC_PROBE_CONFLICTS conflicts switches to VSIDS. When VSIDS
finds a model, the core backtracks to level 0 and searches again, static,
over the same clause database. A static search returns the least model
whatever it has learned:

  Let A be the model a static search ends with, and suppose a model M is
  lexicographically smaller. Let u be the first variable where they differ,
  so M(u) = 0 and A(u) = 1. Static decisions set variables to 0, so u was
  propagated at some level L: it is implied by the clause database together
  with the decisions of levels 1..L. A static search decides a variable
  only once every lower variable is assigned, so every variable assigned at
  level L lies above that level's decision, and the decisions of levels
  1..L are all on variables below u. M agrees with A there, so M satisfies
  those decisions. Every learned clause is implied by the formula, which M
  satisfies, so M satisfies the whole database and hence M(u) = 1: a
  contradiction. A literal asserted after a backjump is implied by the
  decisions below its new level in the same way.

This needs every learned clause to be implied by the formula. Learning by
resolution keeps that, and minimisation removes a literal only when the
rest of the clause implies its negation.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from cfv.errors import check_deadline

if TYPE_CHECKING:
    from cfv.bitblast import CnfFormula

UNASSIGNED = -1
STATIC_PROBE_CONFLICTS = 20
RESTART_UNIT = 100  # conflicts per Luby unit
VAR_DECAY = 0.95
FIRST_REDUCE = 2000  # learned clauses kept before the first deletion
_POLL_MASK = 511  # poll the deadline every 512 steps
_LANE_BITS = 12  # 4,096 valuations per simulated chunk


class DpllResult:
    __slots__ = ("status", "assignment")

    def __init__(self, status: str, assignment: list[int] | None = None):
        self.status = status  # "sat" or "unsat"
        self.assignment = assignment


def solve_cnf(cnf: CnfFormula, deadline: float | None = None) -> DpllResult:
    """Decide a bit-blasted formula. assignment[v] is 0/1 for v in
    1..cnf.num_vars when sat.

    A formula with a gate list is simulated; otherwise the learning core
    searches its clauses. Either way the model's input bits are the least
    satisfying input valuation. Raises Timeout past the deadline.
    """
    check_deadline(deadline, "solving")
    if cnf.gates is not None:
        return simulate(cnf, deadline)
    return search(cnf.num_vars, cnf.clauses, deadline)


@cache
def _lane_patterns(bits: int) -> tuple[int, ...]:
    """Word b has lane l set exactly when bit b of l is set, l < 2^bits.
    Built on the first simulation rather than at import."""
    lanes = 1 << bits
    patterns = []
    for b in range(bits):
        run = 1 << b
        word = ((1 << run) - 1) << run  # lanes run..2*run-1 of the first period
        period = 2 * run
        while period < lanes:
            word |= word << period
            period *= 2
        patterns.append(word)
    return tuple(patterns)


def simulate(circuit: CnfFormula, deadline: float | None = None) -> DpllResult:
    """Evaluate the circuit on every input valuation, in counting order.

    See the module docstring for why the first hit is the least model.
    """
    n = circuit.num_vars
    k = circuit.num_inputs
    lane_bits = min(k, _LANE_BITS)
    mask = (1 << (1 << lane_bits)) - 1
    # w[lit] has a lane set where lit is true. Negative literals index from
    # the end of the list, which never overlaps 1..n.
    w = [0] * (2 * n + 1)
    w[1] = mask
    patterns = _lane_patterns(_LANE_BITS)
    # Valuation bit i drives variable k + 1 - i. The low lane_bits of the
    # valuation are the lane number, the others the chunk number.
    for i in range(lane_bits):
        v = k + 1 - i
        w[v] = patterns[i] & mask
        w[-v] = w[v] ^ mask
    gates = circuit.gates
    root = circuit.root
    for chunk in range(1 << (k - lane_bits)):
        check_deadline(deadline, "solving")
        for i in range(lane_bits, k):
            v = k + 1 - i
            w[v] = mask if chunk >> (i - lane_bits) & 1 else 0
            w[-v] = w[v] ^ mask
        for g, kind, ops in gates:
            if kind == "and":
                x = w[ops[0]] & w[ops[1]]
            elif kind == "xor":
                x = w[ops[0]] ^ w[ops[1]]
            elif kind == "ite":
                c, a, b = ops
                x = w[b] ^ (w[c] & (w[a] ^ w[b]))
            else:  # maj
                a, b, c = ops
                x = (w[a] & w[b]) | (w[c] & (w[a] ^ w[b]))
            w[g] = x
            w[-g] = x ^ mask
        hits = w[root]
        if hits:
            lane = (hits & -hits).bit_length() - 1
            return DpllResult("sat", [UNASSIGNED] + [w[v] >> lane & 1 for v in range(1, n + 1)])
    return DpllResult("unsat")


def _luby(x: int) -> int:
    """Element x (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def search(
    num_vars: int,
    clauses: list[tuple[int, ...]],
    deadline: float | None = None,
) -> DpllResult:
    """Decide a CNF with the learning core; a model is the least one.

    See the module docstring for why the model is the lexicographically
    least one even though VSIDS decides where the search goes.
    """
    n = num_vars
    # val[lit] is 1, 0 or UNASSIGNED for the literal lit. Negative literals
    # index from the end of the list, which never overlaps 1..n.
    val = [UNASSIGNED] * (2 * n + 1)
    level = [0] * (n + 1)
    reason = [-1] * (n + 1)  # index into db of the clause that implied it
    phase = [0] * (n + 1)  # saved polarity for VSIDS decisions
    seen = [False] * (n + 1)
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    # Clauses are shared with the caller, not copied: w0/w1 hold each
    # clause's two watched literals, watches[lit] the clauses watching lit.
    db: list[tuple[int, ...] | None] = list(clauses)
    w0: list[int] = []
    w1: list[int] = []
    watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
    lbd: dict[int, int] = {}  # learned clause index -> literal block distance

    act = [0.0] * (n + 1)
    heap = list(range(1, n + 1))  # max-heap on act; equal keys form a heap
    hpos = list(range(-1, n))  # position in heap, -1 when absent
    var_inc = 1.0

    qhead = 0
    steps = 0
    next_var = 1  # no variable below it is unassigned (static decisions)

    def sift_up(i: int) -> None:
        v = heap[i]
        a = act[v]
        while i:
            parent = (i - 1) >> 1
            u = heap[parent]
            if act[u] >= a:
                break
            heap[i] = u
            hpos[u] = i
            i = parent
        heap[i] = v
        hpos[v] = i

    def pop_max() -> int:
        top = heap[0]
        last = heap.pop()
        hpos[top] = -1
        if heap:
            size = len(heap)
            a = act[last]
            i = 0
            while True:
                c = 2 * i + 1
                if c >= size:
                    break
                if c + 1 < size and act[heap[c + 1]] > act[heap[c]]:
                    c += 1
                u = heap[c]
                if act[u] <= a:
                    break
                heap[i] = u
                hpos[u] = i
                i = c
            heap[i] = last
            hpos[last] = i
        return top

    def bump(v: int) -> None:
        nonlocal var_inc
        act[v] += var_inc
        if act[v] > 1e100:
            for u in range(1, n + 1):
                act[u] *= 1e-100
            var_inc *= 1e-100
        if hpos[v] >= 0:
            sift_up(hpos[v])

    def assign(lit: int, why: int) -> None:
        val[lit] = 1
        val[-lit] = 0
        v = lit if lit > 0 else -lit
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    def cancel_until(lvl: int) -> None:
        nonlocal qhead, next_var
        if len(trail_lim) <= lvl:
            return
        mark = trail_lim[lvl]
        undone = trail[mark:]
        del trail[mark:]
        del trail_lim[lvl:]
        qhead = mark
        next_var = min(next_var, min(map(abs, undone)))
        for lit in undone:
            val[lit] = val[-lit] = UNASSIGNED
            v = lit if lit > 0 else -lit
            phase[v] = 1 if lit > 0 else 0
            if hpos[v] < 0:
                heap.append(v)
                sift_up(len(heap) - 1)

    def watch(ci: int, a: int, b: int) -> None:
        w0.append(a)
        w1.append(b)
        watches[a].append(ci)
        watches[b].append(ci)

    def propagate() -> int:
        """Unit propagation; a conflicting clause index or -1."""
        nonlocal qhead, steps
        dl = len(trail_lim)
        while qhead < len(trail):
            f = -trail[qhead]  # the literal just made false
            qhead += 1
            steps += 1
            if not steps & _POLL_MASK:
                check_deadline(deadline, "solving")
            ws = watches[f]
            i = 0
            end = len(ws)
            while i < end:
                ci = ws[i]
                other = w1[ci]
                first = other != f  # f is the first watch
                if not first:
                    other = w0[ci]
                vo = val[other]
                if vo == 1:
                    i += 1
                    continue
                for cand in db[ci]:
                    # f itself is false, so the value test also skips it.
                    if val[cand] != 0 and cand != other:
                        if first:
                            w0[ci] = cand
                        else:
                            w1[ci] = cand
                        watches[cand].append(ci)
                        end -= 1
                        ws[i] = ws[end]
                        ws.pop()
                        break
                else:
                    if vo == 0:
                        return ci
                    val[other] = 1
                    val[-other] = 0
                    v = other if other > 0 else -other
                    level[v] = dl
                    reason[v] = ci
                    trail.append(other)
                    i += 1
        return -1

    def redundant(v: int, levels: int, toclear: list[int]) -> bool:
        """Whether the learned literal on v is implied by the others.

        Walks the implication graph below v. Every variable it marks stays
        marked only if the whole walk succeeds; a failed walk unmarks what
        it marked, so no later check can lean on an unproven mark.
        """
        top = len(toclear)
        stack = [v]
        while stack:
            for lit in db[reason[stack.pop()]]:
                u = lit if lit > 0 else -lit
                if seen[u] or level[u] == 0:
                    continue
                if reason[u] >= 0 and (1 << (level[u] & 31)) & levels:
                    seen[u] = True
                    stack.append(u)
                    toclear.append(u)
                    continue
                for w in toclear[top:]:
                    seen[w] = False
                del toclear[top:]
                return False
        return True

    def analyze(confl: int) -> list[int]:
        """1-UIP clause for the conflict, minimised; asserting literal first."""
        dl = len(trail_lim)
        learnt = [0]
        pathc = 0
        p = 0
        i = len(trail) - 1
        clause = db[confl]
        while True:
            for q in clause:
                v = q if q > 0 else -q
                if q == p or seen[v] or level[v] == 0:
                    continue
                seen[v] = True
                bump(v)
                if level[v] >= dl:
                    pathc += 1
                else:
                    learnt.append(q)
            while not seen[abs(trail[i])]:
                i -= 1
            p = trail[i]
            i -= 1
            v = p if p > 0 else -p
            seen[v] = False
            pathc -= 1
            if pathc == 0:
                break
            clause = db[reason[v]]
        learnt[0] = -p

        levels = 0
        for q in learnt[1:]:
            levels |= 1 << (level[abs(q)] & 31)
        toclear = [abs(q) for q in learnt[1:]]
        out = [learnt[0]]
        for q in learnt[1:]:
            v = abs(q)
            if reason[v] < 0 or not redundant(v, levels, toclear):
                out.append(q)
        for v in toclear:
            seen[v] = False
        return out

    def reduce_db() -> None:
        """Delete the less useful half of the unlocked learned clauses."""
        cands = []
        for ci, dist in lbd.items():
            a, b = w0[ci], w1[ci]
            locked = (val[a] == 1 and reason[abs(a)] == ci) or (
                val[b] == 1 and reason[abs(b)] == ci
            )
            if dist > 2 and not locked:
                cands.append((dist, -ci))
        cands.sort()
        for _, neg in cands[len(cands) // 2:]:
            ci = -neg
            watches[w0[ci]].remove(ci)
            watches[w1[ci]].remove(ci)
            db[ci] = None
            del lbd[ci]

    for ci, clause in enumerate(clauses):
        if len(clause) >= 2:
            watch(ci, clause[0], clause[1])
            continue
        w0.append(0)
        w1.append(0)
        if not clause or val[clause[0]] == 0:
            return DpllResult("unsat")
        if val[clause[0]] == UNASSIGNED:
            assign(clause[0], -1)

    static = True
    probe_left = STATIC_PROBE_CONFLICTS  # 0: no switch ahead
    restarts = 0
    restart_left = 0
    max_learnts = FIRST_REDUCE
    while True:
        confl = propagate()
        if confl >= 0:
            if not trail_lim:
                return DpllResult("unsat")
            out = analyze(confl)
            var_inc /= VAR_DECAY
            if len(out) == 1:
                cancel_until(0)
                assign(out[0], -1)
            else:
                hi = max(range(1, len(out)), key=lambda k: level[abs(out[k])])
                out[1], out[hi] = out[hi], out[1]
                cancel_until(level[abs(out[1])])
                ci = len(db)
                db.append(tuple(out))
                watch(ci, out[0], out[1])
                lbd[ci] = len({level[abs(q)] for q in out})
                assign(out[0], ci)
            if len(lbd) >= max_learnts:
                reduce_db()
                max_learnts = int(max_learnts * 1.1)
            if not static:
                restart_left -= 1
            elif probe_left:
                probe_left -= 1
                if not probe_left:
                    static = False
                    restart_left = RESTART_UNIT * _luby(0)
            continue

        if static:
            v = next_var
            while v <= n and val[v] != UNASSIGNED:
                v += 1
            next_var = v
            if v > n:
                return DpllResult("sat", val[: n + 1])
            lit = -v
        else:
            if restart_left <= 0:
                restarts += 1
                restart_left = RESTART_UNIT * _luby(restarts)
                cancel_until(0)
                continue
            v = 0
            while heap:
                u = pop_max()
                if val[u] == UNASSIGNED:
                    v = u
                    break
            if not v:
                # VSIDS found a model; the static search over the same
                # clauses now finds the least one.
                static = True
                cancel_until(0)
                next_var = 1
                continue
            lit = v if phase[v] else -v

        steps += 1
        if not steps & _POLL_MASK:
            check_deadline(deadline, "solving")
        trail_lim.append(len(trail))
        assign(lit, -1)
