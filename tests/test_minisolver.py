"""The incremental brute-force engine and the in-process client.

One `BruteForceEngine` serves a session while its declarations stay the
same: it compiles each assertion once, and a blocking query resumes the
last finite scan at the model that scan found.  Every answer must equal a
fresh engine's and, on a finite box, the first best point of the box in
lexicographic order.  The in-process client answers error once a request's
deadline has passed."""

import hashlib
import io
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler import minisolver
from boxsampler.compiled import compile_predicate
from boxsampler.minisolver import BruteForceEngine, LocalSolverClient, _Session
from boxsampler.sampler import SamplerConfig, sample_formula
from boxsampler.smtlib import Declaration, parse_problem, print_term
from boxsampler.solver import SolverRequest, VerdictKind
from boxsampler.terms import Add, Atom, BoolVar, IntConst, IntVar, Model, Or, Rel, Sort

from oracle import random_atom, random_formula

SUM4 = (
    "(declare-const a Int)(declare-const b Int)(declare-const c Int)(declare-const d Int)"
    "(assert (and (>= a 0) (>= b 0) (>= c 0) (>= d 0) (<= (+ a b c d) 12)))"
)


@pytest.fixture
def predicate_calls(monkeypatch):
    """The number of calls of each predicate the engine compiles, in the
    order of compilation."""
    calls: list[int] = []
    original = minisolver.compile_predicate

    def counting(formulas, names):
        pred = original(formulas, names)
        index = len(calls)
        calls.append(0)

        def counted(*values):
            calls[index] += 1
            return pred(*values)

        return counted

    monkeypatch.setattr(minisolver, "compile_predicate", counting)
    return calls


def _feed(session: _Session, text: str) -> None:
    for line in text.splitlines(True):
        for command in session.reader.feed(line):
            session.handle(command)


def test_define_fun_body_is_checked_against_its_sort():
    """The solver child reads define-fun through the parser, so a body of
    another sort is an error reply, placed at the body in the stream."""
    out = io.StringIO()
    _feed(_Session(out), "(declare-const x Int)\n(define-fun c () Int true)\n(define-fun d () Bool (+ x 1))\n"
          "(define-fun e () Bool (> x 1))\n(assert e)\n(check-sat)\n")
    assert out.getvalue().splitlines() == [
        '(error "2:21: expected an Int expression")',
        '(error "3:22: expected a Bool expression")',
        "sat",
    ]


def test_a_point_blocking_trial_compiles_each_assertion_once(data_dir, predicate_calls):
    """The recorded transcript asserts the problem and then one negation per
    query.  Each is compiled once, and each query's scan starts at the
    previous model, so the problem's predicate, which every scanned point
    meets first, runs for fewer than 5,000 points over the 20 queries
    (36,450 when every query scanned from the box's first point).  The
    replies are those pinned before the engine kept any state."""
    text = (data_dir / "point_blocking_7.smt2").read_text()
    out = io.StringIO()
    _feed(_Session(out), text)
    assert out.getvalue().splitlines().count("sat") == 20
    assert len(predicate_calls) == text.count("(assert ") == 20
    assert predicate_calls[0] < 5_000
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "5fd92dc28b2a15fb561068ff104ff5dcfc9c7c605b869f18ad3da94f077002d9"
    )


# ---------------------------------------------------------------------------
# Random transcripts

INTS = ("x", "y", "z")
BOX = range(-3, 5)  # every Int a transcript declares is bounded inside it


@st.composite
def transcripts(draw):
    """Commands for one session, declarations and push/pop/reset among the
    assertions.  Each Int is bounded inside `BOX` in the scope that declares
    it.  "block" stands for asserting that the last model is not the answer
    again; every transcript ends with eight rounds of block and check-sat,
    which run the box dry when it holds few models."""
    scopes = [set()]
    commands = []
    kinds = (
        "declare", "declare", "assert", "assert", "tighten", "soft", "soft", "push", "pop", "reset", "check", "block"
    )
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(kinds))
        declared = set().union(*scopes)
        ints = sorted(declared - {"b"})
        if kind == "declare":
            name = draw(st.sampled_from(INTS + ("b",)))
            if name in declared:
                continue
            scopes[-1].add(name)
            if name == "b":
                commands.append("(declare-const b Bool)")
            else:
                lo = draw(st.integers(BOX.start, BOX.stop - 3))
                hi = lo + draw(st.integers(0, 2))
                commands += [f"(declare-const {name} Int)", f"(assert (and (<= {lo} {name}) (<= {name} {hi})))"]
        elif kind == "push":
            scopes.append(set())
            commands.append("(push 1)")
        elif kind == "pop":
            if len(scopes) > 1:
                scopes.pop()
            commands.append("(pop 1)")
        elif kind == "reset":
            scopes = [set()]
            commands.append("(reset)")
        elif kind in ("check", "block"):
            commands.append("(check-sat)" if kind == "check" else "block")
        elif ints:
            x, y = draw(st.sampled_from(ints)), draw(st.sampled_from(ints))
            c = print_term(IntConst(draw(st.integers(BOX.start - 1, BOX.stop))))
            if kind == "tighten":
                commands.append(f"(assert ({draw(st.sampled_from(['<=', '>=', '<', '>', '=']))} {x} {c}))")
            elif kind == "soft":
                commands.append(f"(assert-soft (= {x} {c}) :weight {draw(st.integers(1, 3))})")
            else:
                forms = [f"(<= (+ {x} {y}) {c})", f"(= (+ {x} (* 2 {y})) {c})", f"(or (distinct {x} {c}) (> {y} {c}))"]
                if "b" in declared:
                    forms += [f"(or b (> {x} {c}))", "(not b)"]
                commands.append(f"(assert {draw(st.sampled_from(forms))})")
    return commands + ["block", "(check-sat)"] * 8


def _blocking_assert(session: _Session) -> str | None:
    """An assertion that the last model, over its symbols that are declared
    now, is not the answer again."""
    model = session.last_model
    if model is None:
        return None
    parts = []
    for d in session.parser.decls.values():
        if d.name in model.bools:
            parts.append(d.name if model.bools[d.name] else f"(not {d.name})")
        elif d.name in model.ints:
            parts.append(f"(= {d.name} {print_term(IntConst(model.ints[d.name]))})")
    return f"(assert (not (and {' '.join(parts)})))" if parts else None


def _first_best(decls, hard, soft) -> Model | None:
    """The first point of `BOX` and the Bools, in lexicographic order of the
    sorted names, that satisfies `hard` with the highest soft score."""
    ints = sorted(d.name for d in decls if d.sort == Sort.INT)
    bools = sorted(d.name for d in decls if d.sort == Sort.BOOL)
    holds = compile_predicate(hard, ints + bools)
    softs = [(compile_predicate([f], ints + bools), w) for f, w in soft]
    best, best_score = None, -1
    for point in itertools.product(BOX, repeat=len(ints)):
        for values in itertools.product((False, True), repeat=len(bools)):
            if holds(*point, *values):
                score = sum(w for p, w in softs if p(*point, *values))
                if score > best_score:
                    best, best_score = Model(dict(zip(ints, point)), dict(zip(bools, values))), score
    return best


@settings(max_examples=100, deadline=None)
@given(transcripts())
def test_each_check_sat_answers_as_a_fresh_engine_and_the_first_best_point(commands):
    """The session's engine lives across the transcript: its compiled
    assertions, its unit bounds and the point its scans resume at must never
    change an answer, `unsat` included."""
    out = io.StringIO()
    session = _Session(out)
    checks = 0
    for text in commands:
        if text == "block":
            text = _blocking_assert(session)
            if text is None:
                continue
        for command in session.reader.feed(text + "\n"):
            if command.items[0].text != "check-sat":
                session.handle(command)
                continue
            decls, hard, soft = list(session.parser.decls.values()), session.hard, session.soft
            fresh = BruteForceEngine(decls).check(hard, soft)
            out.seek(0)
            out.truncate()
            session.handle(command)
            assert out.getvalue() == fresh.kind.value + "\n"
            assert session.last_model == fresh.model == _first_best(decls, hard, soft)
            checks += 1
    assert checks >= 8


# ---------------------------------------------------------------------------
# Soft equalities the unit bounds refute


def test_soft_equalities_outside_the_unit_bounds_cost_no_checks(data_dir, monkeypatch):
    """Random seeding aims `i` and `k`, both within [0, 4], at values in
    [-100, 100].  Such soft equalities add to no score, so the query stops
    at its first model.  The same softs spelled as sums, which the engine
    does not read as unit atoms, cost the whole check budget and reach the
    same model."""
    monkeypatch.setattr(minisolver, "_MAX_ARRAY_CHECKS", 10_000)
    p = parse_problem((data_dir / "fun_app.smt2").read_text())
    i, k = IntVar("i"), IntVar("k")
    units = [(Atom(Rel.EQ, i, IntConst(57)), 1), (Atom(Rel.EQ, IntConst(-33), k), 2)]
    sums = [
        (Atom(Rel.EQ, Add((i, IntConst(0))), IntConst(57)), 1),
        (Atom(Rel.EQ, IntConst(-33), Add((k, IntConst(0)))), 2),
    ]

    def ask(soft):
        client = LocalSolverClient()
        return client.max_solve(SolverRequest(p.declarations, [p.assertion], soft)), client.engine.checks_left

    (unit_answer, unit_checks_left), (sum_answer, sum_checks_left) = ask(units), ask(sums)
    assert unit_answer.is_sat and unit_answer.model == sum_answer.model
    assert unit_checks_left > 0 and sum_checks_left <= 0


# ---------------------------------------------------------------------------
# Deadlines


def test_a_request_past_its_deadline_is_answered_error_without_a_scan(predicate_calls):
    p = parse_problem(SUM4)
    deadline = time.monotonic() - 1.0
    v = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion], [], deadline))
    assert v.kind == VerdictKind.ERROR and "deadline" in v.reason
    assert predicate_calls == [0]


def test_a_random_run_stops_at_its_time_limit_inside_a_query():
    """The MAX-SMT queries of this run scan shells for most of a second
    each; when the in-process client ignored the deadline, a 2 s run ended
    at 2.56 s on a 2-core VM."""
    cfg = SamplerConfig(strategy="random", total_time_limit=2.0, rng_seed=0)
    stats = sample_formula(parse_problem(SUM4), cfg, LocalSolverClient(), random.Random(0))
    assert stats.stop_reason == "total time limit"
    assert stats.wall_time["total"] < 2.25


# ---------------------------------------------------------------------------
# Int-only answers of each point order

WIDE = 4 * sys.maxsize  # a unit bound wider than any `range` length


def _int_query(s: int) -> SolverRequest:
    """A seeded query over up to three Ints and sometimes a Bool, for one
    of the engine's point orders in turn: the shells around unit soft
    targets; the radius boxes with no softs, or with softs that are not
    unit equalities; the box of small unit bounds; and the radius boxes
    with a hard sum beyond their reach, which run out.  Half of the
    queries that are not box queries also bound `x` within [0, WIDE].
    Int-only: no arrays or functions."""
    rng = random.Random(s)
    ints = ["x", "y", "z"][: rng.randint(2, 3)]
    decls = [Declaration(v, Sort.INT) for v in ints]
    hard = [random_formula(rng, ints, 1)]
    if rng.random() < 0.4:
        decls.append(Declaration("p", Sort.BOOL))
        hard.append(Or((BoolVar("p"), random_atom(rng, ints))))
    soft = []
    order = s % 4
    if order == 0:
        soft = [(Atom(Rel.EQ, IntVar(v), IntConst(rng.randint(-30, 30))), rng.randint(1, 3)) for v in ints]
    elif order == 1 and rng.random() < 0.6:
        sums = (Add((IntVar(rng.choice(ints)), IntConst(0))) for _ in range(2))
        soft = [(Atom(Rel.EQ, t, IntConst(rng.randint(-30, 30))), rng.randint(1, 3)) for t in sums]
    elif order == 2:
        for v in ints:
            lo = rng.randint(-4, 2)
            hard += [Atom(Rel.GE, IntVar(v), IntConst(lo)), Atom(Rel.LE, IntVar(v), IntConst(lo + rng.randint(0, 3)))]
        if rng.random() < 0.5:
            soft = [(Atom(Rel.EQ, IntVar(v), IntConst(rng.randint(-5, 5))), 1) for v in ints]
    elif order == 3:
        hard.append(Atom(Rel.EQ, Add((IntVar("x"), IntVar("y"))), IntConst(rng.choice([-1, 1]) * rng.randint(400, 500))))
    if order != 2 and s % 8 < 4:
        hard += [Atom(Rel.GE, IntVar("x"), IntConst(0)), Atom(Rel.LE, IntVar("x"), IntConst(WIDE))]
    return SolverRequest(decls, hard, soft)


def test_int_answers_match_pinned_digest():
    """The (status, model) answers of the brute-force engine on seeded
    Int-only queries over each point order equal the pinned ones."""
    digest = hashlib.sha256()
    statuses = set()
    client = LocalSolverClient()
    for s in range(24):
        req = _int_query(s)
        v = client.max_solve(req) if req.soft else client.solve(req)
        statuses.add(v.kind)
        model = None if v.model is None else (sorted(v.model.ints.items()), sorted(v.model.bools.items()))
        digest.update(repr((v.kind.value, model)).encode())
    assert statuses == {VerdictKind.SAT, VerdictKind.UNSAT, VerdictKind.UNKNOWN}
    assert digest.hexdigest() == "06d4cbf199273790f79222654aee7c5160fcab7fc2d142717bb39a54857f170c"
