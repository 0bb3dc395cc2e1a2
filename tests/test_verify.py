import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from thermoquery import cli, exactsim, problems, verify
from thermoquery.query import QueryMask, ResetCosts
from thermoquery.readout import BinaryDistribution
from thermoquery.thermal import GapVector, ThermalMachineOracle, ThermalQubit

DJ_CASES = 100 * (4 + 8 + 72)  # 100 tuples for each constant or balanced table with n <= 3

SENSITIVITY = "sensitivity-closed-form-agreement"
EXPECTED_CASES = {
    "dj-kickback-population-vs-exact": DJ_CASES,
    "dj-kickback-delta-vs-exact": DJ_CASES,
    "dj-kickback-temperature-vs-exact": DJ_CASES,
    "dj-log-partition-vs-direct-sum": DJ_CASES,
    "general-mask-dj-vs-exact": 200,
    "general-mask-bv-vs-exact": 200,
    "all-ones-mask-reduction": 400,
    "bv-hamming-population-vs-exact": 150,
    "bv-hamming-vs-kickback": 150,
    "mixed-query-vs-exact": 100,
    "swap-query-marginal-vs-exact": 100,
    "regime-sign-consistency": 10000,
    SENSITIVITY: 2140,
    "well-definedness-flag-consistency": 10000,
    "temperature-roundtrip": 10000,
    "reset-energy-bookkeeping": 200,
    "detuning-eta1-vs-kickback": 100,
    "flip-probability-envelope": 100,
    "balanced-partition-permutation-invariance": 3,
}


def test_default_run_is_pinned():
    report = verify.run_verification(seed=1234)
    assert [c.name for c in report.checks] == list(EXPECTED_CASES)
    assert {c.name: c.cases for c in report.checks} == EXPECTED_CASES
    assert report.passed
    worst = {c["name"]: c["worst_case"] for c in report.to_dict()["checks"]}
    assert worst["dj-kickback-population-vs-exact"].startswith("instance=")
    assert worst["regime-sign-consistency"] == ""  # no case has an error above 0
    assert worst["general-mask-dj-vs-exact"].startswith("mask=(")
    assert " machine=(" in worst["general-mask-bv-vs-exact"]
    assert worst["all-ones-mask-reduction"] == ""


# SHA-256 of the standard output and of the --out JSON of `verify --seed S`.
VERIFY_OUTPUT_SHA256 = {
    1234: ("51e4be4f9207e1cd4223d7d83891f021081668e94ccc87aa6c0459e361850d65",
           "e3532068a3acba26cfe1fcb08db82d7ac9a4f9b1e12b4f3277d9fb2086e2912e"),
    7: ("91635b9345a7e34d0d4c86ef5c71d8b528d5d0850b7f31cf9ea0b05a23819b15",
        "8f1adeaa1eb80063511ce625f5bb5bad5c7db88a15830cbdab23ab53bb443f4c"),
    99: ("0e5b0938ba1994f2d0b7a86badf5723e3d4161db6e2f7f0fc29aeb840decd0db",
         "51a530b844e1f4ae49dd090fafce7f0b59224239ba705866acbab16c450e8f11"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_OUTPUT_SHA256))
def test_default_output_bytes(tmp_path, capsys, seed):
    """Every byte of the default report, printed and as JSON, pinned by its
    SHA-256. Like the subcommand pins in test_cli.py, the hashes assume
    numpy's float64 exp and log round as they did where they were taken; a
    deliberate change of the report or of the version updates them."""
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.encode()
    hashes = (hashlib.sha256(printed).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
    assert hashes == VERIFY_OUTPUT_SHA256[seed]


@pytest.mark.parametrize("rows", (512, 1536))
def test_evaluation_block_moves_no_case(monkeypatch, rows):
    """The report is the same whatever number of rows, a multiple of the
    regime section's 512-row draws, a section evaluates at once."""
    sizes = dict(max_dj_n=3, max_bv_n=3, tuples_per_instance=7, mask_cases=5, regime_cases=3000, seed=11)
    expected = verify.run_verification(**sizes).to_dict()
    monkeypatch.setattr(verify, "_BLOCK_ROWS", rows)
    assert verify.run_verification(**sizes).to_dict() == expected


@pytest.mark.parametrize("seed", (7, 99))
def test_default_run_at_other_seeds(seed):
    """Every case count but the sensitivity check's is fixed by the parameters;
    that one depends on the draws and is pinned at seed 1234 only."""
    report = verify.run_verification(seed=seed)
    assert report.passed
    assert [c.name for c in report.checks] == list(EXPECTED_CASES)
    cases = {c.name: c.cases for c in report.checks}
    assert cases == {**EXPECTED_CASES, SENSITIVITY: cases[SENSITIVITY]}


def test_general_mask_errors_follow_each_mask(monkeypatch):
    """Grouped by machine size, every case keeps its own mask: the errors
    are rounding-sized, and complementing the exact side's masks fails
    every case where that changes X.G."""
    rng = np.random.default_rng(3)
    machines = verify._random_dj_machines(rng, 60, 3)
    masks = rng.integers(0, 2, machines.gaps.shape)
    errors, reduction = verify._general_mask_errors(machines, masks)
    assert errors.shape == reduction.shape == (60,)
    assert errors.max() < 1e-13 and reduction.max() == 0.0

    kickback_batch = exactsim.kickback_batch
    monkeypatch.setattr(
        exactsim, "kickback_batch",
        lambda omega, beta_s, gaps, beta_m, masks, **options: kickback_batch(
            omega, beta_s, gaps, beta_m, 1 - masks, **options
        ),
    )
    errors, _ = verify._general_mask_errors(machines, masks)
    changed = [
        abs(sum(g if bit else -g for g, bit in zip(gaps[:size], mask))) > 1e-9
        for gaps, mask, size in zip(machines.gaps.tolist(), masks.tolist(), machines.sizes.tolist())
    ]
    assert sum(changed) > 40
    assert (errors > 1e-6).tolist() == changed


MASK_CHECKS = ("general-mask-dj-vs-exact", "general-mask-bv-vs-exact", "all-ones-mask-reduction")


@pytest.mark.parametrize("owner, name", [(QueryMask, "dot"), (GapVector, "total")])
def test_mask_section_checks_the_library_mask_path(monkeypatch, owner, name):
    """X.G and |G| come from the library: a slightly wrong masked sum or gap
    total fails the general-mask checks and the all-ones reduction."""
    def report():
        return verify.run_verification(
            max_dj_n=2, max_bv_n=3, tuples_per_instance=1, mask_cases=30, regime_cases=1, seed=5
        )

    def failed(checks):
        return {c.name for c in checks.checks if not c.passed} & set(MASK_CHECKS)

    assert failed(report()) == set()
    original = owner.__dict__[name]
    if isinstance(original, property):
        monkeypatch.setattr(owner, name, property(lambda self: original.fget(self) * (1.0 + 1e-9)))
    else:
        monkeypatch.setattr(owner, name, lambda self, gaps: original(self, gaps) * (1.0 + 1e-9))
    assert failed(report()) == set(MASK_CHECKS)


def scalar_uniforms(rng, keys, rows):
    return np.array([[rng.uniform(*verify.PARAMETER_RANGES[key]) for key in keys] for _ in range(rows)])


def test_block_draws_equal_scalar_draws():
    keys = ("omega", "beta_s", "gap", "gap", "beta_m")
    scalar_rng, block_rng = np.random.default_rng(99), np.random.default_rng(99)
    scalar = scalar_uniforms(scalar_rng, keys, 1000)
    block = np.column_stack(verify._scaled(block_rng.random((1000, 5)), keys))
    assert np.array_equal(block, scalar)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert block_rng.uniform() == scalar_rng.uniform()


def scalar_promise_ones(x, size):
    """The promise law's count of ones of a table of ``size`` outputs from one float draw."""
    scaled = x * (math.comb(size, size // 2) + 2)
    return 0 if scaled < 1.0 else size if scaled < 2.0 else size // 2


def law_regime_draws(rng, rows, max_n):
    """The regime section's block of draws written out as its three numpy
    calls, the class of each table mapped by the promise law one row at a time."""
    n = rng.integers(1, max_n + 1, rows)
    u = rng.random(rows)
    draws = rng.random((rows, 6))
    sizes = 1 << n
    ones = np.array([scalar_promise_ones(x, size) for size, x in zip(sizes.tolist(), u.tolist())], dtype=np.int64)
    return sizes, ones, draws


@pytest.mark.parametrize("seed", (0, 11, 2024))
@pytest.mark.parametrize("rows", (1, 2, 7, 301))
@pytest.mark.parametrize("max_n", (1, 3, 5))
@pytest.mark.parametrize("kept_half", (False, True))
def test_raw_word_draws_equal_numpy_calls(seed, rows, max_n, kept_half):
    """The regime draws give the values of their numpy calls and leave the
    generator's raw-word stream where those calls leave it, a kept 32-bit
    half included, so a seed fixes every later draw of the run."""
    law_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if kept_half:
        law_rng.integers(0, 2, 3)
        block_rng.integers(0, 2, 3)
        assert block_rng.bit_generator.state["has_uint32"] == 1
    expected = law_regime_draws(law_rng, rows, max_n)
    actual = verify._regime_draws(block_rng, rows, max_n)
    for a, b in zip(actual, expected):
        assert np.array_equal(a, b)
    assert block_rng.bit_generator.state == law_rng.bit_generator.state
    assert block_rng.integers(0, 2, 5).tolist() == law_rng.integers(0, 2, 5).tolist()
    assert block_rng.random() == law_rng.random()
    assert block_rng.integers(1, 6) == law_rng.integers(1, 6)
    assert block_rng.bit_generator.state == law_rng.bit_generator.state


def within(count, total, p):
    """A count of ``total`` draws is within 5 standard deviations of probability ``p``."""
    assert abs(count - total * p) <= 5.0 * math.sqrt(total * p * (1.0 - p))


def test_promise_law():
    """Regime tables and the bulk-drawn Deutsch-Jozsa machines follow the
    promise law: at size s = 2^n, 0 and s ones each with probability
    1/(C + 2) and s/2 ones with C/(C + 2), C = C(s, s/2). A balanced machine
    table is any of the C(2, 1) = 2 at n = 1 and the C(4, 2) = 6 at n = 2
    alike. Every frequency is within 5 standard deviations."""
    def law(sizes, ones):
        assert set(sizes.tolist()) == {2, 4, 8}
        for size in (2, 4, 8):
            counts = ones[sizes == size]
            balanced = math.comb(size, size // 2)
            assert set(counts.tolist()) <= {0, size // 2, size}
            for value, weight in ((0, 1), (size, 1), (size // 2, balanced)):
                within(np.count_nonzero(counts == value), counts.size, weight / (balanced + 2))

    sizes, ones, draws = verify._regime_draws(np.random.default_rng(2024), 240_000, 3)
    assert draws.shape == (240_000, 6)
    law(sizes, ones)

    machines = verify._random_dj_machines(np.random.default_rng(11), 60_000, 3)
    tables = [function.outputs for function in machines.sources]
    law(machines.sizes, np.array([sum(table) for table in tables]))
    for size, count in ((2, 2), (4, 6)):
        balanced = [table for table in tables if len(table) == size and 2 * sum(table) == size]
        assert len(set(balanced)) == count
        for table in set(balanced):
            within(balanced.count(table), len(balanced), 1 / count)


def test_random_machines_match_their_oracles():
    """Each drawn row's gaps, temperature and probe are its library objects'."""
    rng = np.random.default_rng(4)
    for machines in (verify._random_dj_machines(rng, 300, 3),
                     verify._random_bv_machines(rng, rng.integers(1, 7, 300), nonzero=False)):
        for t, (oracle, probe) in enumerate(machines.cases()):
            size = int(machines.sizes[t])
            assert oracle.n_machine_qubits == size
            assert machines.gaps[t, :size].tolist() == list(oracle.gap_vector.gaps)
            assert machines.beta_m[t] == oracle.machine_inverse_temperature
            assert (machines.omega[t], machines.beta_s[t]) == (probe.gap, probe.inverse_temperature)


def test_secret_string_draws():
    """Secret bits are uniform; with the nonzero rule an all-zero secret has
    its last bit set, so no secret is all zero and every 1-bit secret is 1."""
    rng = np.random.default_rng(7)
    n = rng.integers(1, 7, 20_000)
    secrets = [secret for secret, _ in verify._random_bv_machines(rng, n, nonzero=True).sources]
    assert [len(secret) for secret in secrets] == n.tolist()
    assert all("1" in secret for secret in secrets)
    assert {secret for secret in secrets if len(secret) == 1} == {"1"}
    two_bits = [secret for secret in secrets if len(secret) == 2]
    assert set(two_bits) == {"01", "10", "11"}
    within(two_bits.count("01"), len(two_bits), 1 / 2)  # "00" becomes "01"

    unrestricted = verify._random_bv_machines(rng, np.full(4000, 3), nonzero=False).sources
    within(sum(secret == "000" for secret, _ in unrestricted), 4000, 1 / 8)


def test_mask_and_swap_draws_are_in_range():
    """Mask bits are 0/1, one row per machine, and every swap takes a machine
    qubit of its own machine, each alike."""
    rng = np.random.default_rng(8)
    for machines, masks in verify._mask_draws(rng, 2000, 3, 6):
        assert masks.shape == machines.gaps.shape and len(machines.oracles) == 2000
        assert set(np.unique(masks).tolist()) == {0, 1}
        within(np.count_nonzero(masks), masks.size, 1 / 2)
    machines, taken = verify._swap_draws(rng, 4000, 2)
    assert set(machines.sizes.tolist()) == {2, 4}
    assert np.all((taken >= 0) & (taken < machines.sizes))
    for size in (2, 4):
        chosen = taken[machines.sizes == size]
        for x in range(size):
            within(np.count_nonzero(chosen == x), chosen.size, 1 / size)


def test_scalar_promise_law_equals_arrays():
    """The array law gives the count of ones of the law applied one float
    draw at a time, at the class boundaries u (C + 2) = 1 and 2 too."""
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        weight = math.comb(1 << n, 1 << (n - 1)) + 2
        edges = np.array([1.0, 2.0]) / weight
        u = np.concatenate((rng.random(2000), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)))
        scalar = [scalar_promise_ones(x, 1 << n) for x in u.tolist()]
        assert set(scalar) == {0, 1 << (n - 1), 1 << n}
        assert scalar == verify._promise_ones(u, np.full(u.size, n)).tolist()


SMALL_RUN = dict(max_dj_n=2, max_bv_n=3, tuples_per_instance=12, mask_cases=30, regime_cases=600, seed=5)
REGIME_CHECKS = ("regime-sign-consistency", SENSITIVITY, "well-definedness-flag-consistency", "temperature-roundtrip")


@pytest.mark.parametrize("name", ("max_dj_n", "max_bv_n", "tuples_per_instance", "mask_cases", "regime_cases"))
@pytest.mark.parametrize("value", (0, -3))
def test_sizes_below_one_are_rejected(name, value):
    """A size below 1 would leave its checks with no cases, reported as passed."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        verify.run_verification(**{**SMALL_RUN, name: value})


@pytest.mark.parametrize("name, most", (("max_dj_n", problems.MAX_EXHAUSTIVE_N),
                                        ("max_bv_n", exactsim.DEFAULT_MAX_QUBITS - 1)))
def test_sizes_past_the_tables_and_the_simulator_are_rejected_before_any_section(name, most, monkeypatch):
    """Tables are enumerated up to MAX_EXHAUSTIVE_N bits, and an n-bit
    secret takes n + 1 qubits of the exact simulator: one past either is
    refused before any section runs, and the limit itself is accepted."""
    ran = []
    monkeypatch.setattr(verify, "_SECTIONS", (lambda rng, sizes: ran.append(sizes) or [],) * len(verify._SECTIONS))
    with pytest.raises(ValueError, match=f"^{name} must be <= {most}, got {most + 1}$"):
        verify.run_verification(**{**SMALL_RUN, name: most + 1})
    assert ran == []
    assert verify.run_verification(**{**SMALL_RUN, name: most}).checks == []
    assert len(ran) == len(verify._SECTIONS)


@pytest.mark.parametrize("section, changed", [
    (MASK_CHECKS, {"mask_cases": 31}),
    (REGIME_CHECKS, {"regime_cases": 700}),
    (MASK_CHECKS + ("bv-hamming-population-vs-exact", "bv-hamming-vs-kickback"), {"max_bv_n": 4}),
])
def test_each_section_draws_from_its_own_stream(section, changed):
    """Changing how many draws one section makes leaves every other check's
    result as it was."""
    def others(report):
        return [repr(check) for check in report.checks if check.name not in section]

    base, more = verify.run_verification(**SMALL_RUN), verify.run_verification(**{**SMALL_RUN, **changed})
    assert others(base) == others(more)
    assert [c.cases for c in base.checks if c.name in section] != [c.cases for c in more.checks if c.name in section]


SCALE = 1.0 + 1e-9


def scaled_outcome(outcome):
    beta_after = None if outcome.beta_after is None else outcome.beta_after * SCALE
    return replace(outcome, p0_after=outcome.p0_after * SCALE, delta_p0=outcome.delta_p0 * SCALE,
                   beta_after=beta_after)


def scaled_swap(result):
    return result._replace(probe=ThermalQubit(result.probe.gap * SCALE, result.probe.inverse_temperature))


# (owner, name, wrap, checks that must fail): wrap(original) is the mutant.
LIBRARY_MUTANTS = [
    (ThermalMachineOracle, "log_partition_function",
     lambda original: property(lambda self: original.func(self) * SCALE),
     {"general-mask-dj-vs-exact", "general-mask-bv-vs-exact"}),
    (verify, "hamming_weight_population", lambda f: lambda *args: f(*args) * SCALE,
     {"bv-hamming-population-vs-exact", "bv-hamming-vs-kickback"}),
    (verify, "kickback_outcome", lambda f: lambda *args: scaled_outcome(f(*args)),
     {"bv-hamming-vs-kickback", "reset-energy-bookkeeping", "detuning-eta1-vs-kickback"}),
    (verify, "mixed_input_query", lambda f: lambda *args: BinaryDistribution(f(*args).p0 * SCALE),
     {"mixed-query-vs-exact"}),
    (verify, "swap_query", lambda f: lambda *args: scaled_swap(f(*args)), {"swap-query-marginal-vs-exact"}),
    (verify, "reset_costs", lambda f: lambda *args: ResetCosts(*(cost * SCALE for cost in f(*args))),
     {"reset-energy-bookkeeping"}),
    (verify, "detuned_probe_temperature", lambda f: lambda *args: f(*args) * SCALE,
     {"detuning-eta1-vs-kickback"}),
    (verify, "flip_probability", lambda f: lambda *args: f(*args) * SCALE, {"flip-probability-envelope"}),
    (verify, "suppression_factor", lambda f: lambda *args: f(*args) * SCALE, {"flip-probability-envelope"}),
]


@pytest.mark.parametrize("owner, name, wrap, checks", LIBRARY_MUTANTS, ids=[m[1] for m in LIBRARY_MUTANTS])
def test_each_check_calls_its_library_function(monkeypatch, owner, name, wrap, checks):
    """Each check compares the library function it tests on every case: the
    function's result scaled by 1 + 1e-9 fails the check."""
    def failed():
        return {c.name for c in verify.run_verification(**SMALL_RUN).checks if not c.passed}

    assert failed() == set()
    original = vars(owner)[name]
    monkeypatch.setattr(owner, name, wrap(original))
    assert checks <= failed()


class TestTrackerBlocks:
    def test_block_matches_one_by_one(self):
        errors = [0.5, math.nan, 2.0, 3.0, 1.5, math.inf, 0.1]
        one, block = verify.CheckResult("x", 1.0), verify.CheckResult("x", 1.0)
        for i, error in enumerate(errors):
            one.record_block(np.array([error]), lambda _, i=i: f"row{i}")
        block.record_block(np.array(errors[:4]), lambda i: f"row{i}")
        block.record_block(np.array(errors[4:]), lambda i: f"row{i + 4}")
        assert repr(one) == repr(block)  # NaN != NaN, so compare as text
        assert block.cases == 7 and math.isnan(block.max_error) and not block.passed
        assert block.first_failure == "row1 (error nan)"
        assert block.worst_case == "row1 (error nan)"

    def test_context_only_for_reported_rows(self):
        asked = []
        check = verify.CheckResult("x", 1e-3)

        def context(i):
            asked.append(i)
            return f"row{i}"

        check.record_block(np.array([1e-5, 4e-3, 2e-4, 9e-3, 1e-6]), context)
        check.record_block(np.array([]), context)
        assert sorted(asked) == [1, 3]
        assert check.first_failure == "row1 (error 4.000e-03)"
        assert check.worst_case == "row3 (error 9.000e-03)"

    def test_nan_alone_is_a_failure(self):
        check = verify.CheckResult("x", 0.0)
        check.record_block(np.array([0.0, math.nan, math.nan]), lambda i: f"row{i}")
        assert not check.passed and check.cases == 3 and math.isnan(check.max_error)
        assert check.first_failure == check.worst_case == "row1 (error nan)"
