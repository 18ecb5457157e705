"""Environment sampling, partition functions and Monte Carlo checks."""

import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from gburge.arrays import ShapedArray, random_array
from gburge.oracles import enum_nonintersecting, path_sum
from gburge.polymer import (
    EnvSpec,
    InverseGammaOverflowError,
    MCResult,
    Stream,
    burge_partition_vector,
    check_lukacs,
    check_replica_routes,
    check_Z_Zstar,
    ks_two_sample,
    laplace_mc,
    normalization_c,
    replica_Z,
    sample_inv_gamma,
    sample_replica_env,
    sample_symmetric_env,
)
from gburge.polymer import (
    _CHUNK,
    _burge_diagonals,
    _corner_Z,
    _dual_Z,
    _kolmogorov_sf,
    _Lanes,
    _replica_rows,
    _sample_gamma,
    _staircase_Z_replica,
    _symmetric_rows,
)
from gburge.shapes import Shape, rectangle
from gburge.values import GEOMETRIC_RATIONAL

R = GEOMETRIC_RATIONAL


def staircase_weights(n, seed):
    rng = random.Random(seed)
    rows = [
        [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n + 1 - i)]
        for i in range(1, n + 1)
    ]
    return ShapedArray.from_rows(rows, R)


# -- streams ---------------------------------------------------------------


def test_stream_is_a_pure_function_of_its_keys():
    a = [Stream(7, 3).u64() for _ in range(1)]
    assert [Stream(7, 3).u64()] == a
    seq = Stream(7, 3)
    assert [seq.u64(), seq.u64()] != [seq.u64(), seq.u64()]
    assert Stream(7, 4).u64() != a[0]
    assert Stream(7).u64() != Stream(7, 0).u64()


def test_scalar_stream_known_answers():
    # exact draws of Stream(7, 3): uniform() steps the counter itself, not through u64(),
    # and no draw may move
    rng = Stream(7, 3)
    assert [rng.u64() for _ in range(8)] == [
        11578761477630069448, 17655141911201797568, 1153544583841271667, 15960452226342139497,
        2186497039273536118, 3413151878942902587, 1058080540602090349, 7151737025426548184,
    ]
    rng = Stream(7, 3)
    assert [rng.uniform() for _ in range(8)] == [
        0.6276859174368996, 0.9570871607832435, 0.0625337771929797, 0.8652178488825627,
        0.11853024200567464, 0.18502733410864391, 0.05735866103927123, 0.38769644100062417,
    ]
    rng = Stream(7, 3)
    assert [rng.normal() for _ in range(8)] == [
        0.9302370052910177, -0.2570794666436891, 1.5595347924828613, -1.764071454704868,
        0.8198761406223031, 1.8955150757442494, -1.820043009474378, 1.5505825665883717,
    ]
    known = {
        0.5: ([0.5370173345192975, 32.08326610448085, 11.176655222062198, 0.8654139648184485], 12),
        1.5: ([0.4020122109299412, 1.0983742843650814, 0.43569237580680487, 0.2152738010467032], 8),
        3.0: ([0.22259611268213766, 0.44081948638232077, 0.2357331892446802, 0.14056482759407168], 8),
    }
    for shape, (draws, used) in known.items():
        rng = Stream(7, 3)
        assert [sample_inv_gamma(shape, 1.0, rng) for _ in range(4)] == draws
        fresh = Stream(7, 3)
        # the four draws took `used` outputs of the stream, rejections included
        assert rng.u64() == [fresh.u64() for _ in range(used + 1)][-1]


# burge_partition_vector(sample_symmetric_env(spec, Stream(s, i))) and the rows of
# sample_replica_env(spec, Stream(s, i)) for spec = EnvSpec(3, (1, 1.5, 2), 1.0),
# as float.hex: the whole scalar path, from the stream to the Burge diagonal
SCALAR_PATH = {
    (7, 3): (
        ["0x1.157ed2c4819e6p-3", "0x1.b5b05751715dap-7", "0x1.02d7d3ac65e5cp-6"],
        [["0x1.e2c8151319f83p-3", "0x1.1ae522cef7117p-1", "0x1.82e83487dbd8fp-1"],
         ["0x1.dbb91e87b5613p-4", "0x1.db1c8b863843dp-2"], ["0x1.0216499caeed3p+0"]],
    ),
    (1, 0): (
        ["0x1.04a9ec004a8b4p-2", "0x1.59e30ccb7ffbcp-4", "0x1.9c5026b6c4a34p+4"],
        [["0x1.597366f345662p-1", "0x1.666ee5b541828p+0", "0x1.5429f77a933ddp+2"],
         ["0x1.1f2cd1e968019p-2", "0x1.4a34b4e557405p-1"], ["0x1.a39c570c49e78p-1"]],
    ),
    (2, 41): (
        ["0x1.957fa0216201bp-3", "0x1.3cc7cceb1ce11p-6", "0x1.24b043200dbb9p-5"],
        [["0x1.5cf6f3ebc28bbp-3", "0x1.86db8c7eae039p-1", "0x1.044734ccda238p+0"],
         ["0x1.600df62e4d308p-3", "0x1.ae06fcb21c4b6p-1"], ["0x1.399900fe85908p-1"]],
    ),
    (20, 999): (
        ["0x1.0951d339098b1p-3", "0x1.10ab5a60cb938p-4", "0x1.8a3ef7bbc037cp-5"],
        [["0x1.6739dbb8a22b8p-3", "0x1.9ad858aa84ec8p-1", "0x1.0961788bf0f41p-1"],
         ["0x1.0ffcd65528317p-1", "0x1.b2dfec02d506ep-1"], ["0x1.3ce1d119957e7p-1"]],
    ),
}


@pytest.mark.parametrize("key", list(SCALAR_PATH), ids=str)
def test_scalar_path_known_answers(key):
    spec = EnvSpec(3, (1, 1.5, 2), 1.0)
    diag, replica = SCALAR_PATH[key]
    got = burge_partition_vector(sample_symmetric_env(spec, Stream(*key)))
    assert [x.hex() for x in got] == diag
    assert [[x.hex() for x in row] for row in sample_replica_env(spec, Stream(*key)).rows] == replica


def test_uniform_range_and_mean():
    xs = [Stream(1, i).uniform() for i in range(4000)]
    assert all(0.0 < x <= 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 3 * (1 / math.sqrt(12 * len(xs)))


def test_normal_moments():
    rng = Stream(2)
    xs = [rng.normal() for _ in range(4000)]
    n = len(xs)
    assert abs(sum(xs) / n) < 3 / math.sqrt(n)
    assert abs(sum(x * x for x in xs) / n - 1.0) < 3 * math.sqrt(2 / n)


# -- inverse-gamma sampling ---------------------------------------------------------------


def test_inv_gamma_mean_matches_beta_over_alpha_minus_one():
    # mean beta/(alpha-1) = 1, variance beta^2/((alpha-1)^2 (alpha-2)) = 1
    n = 20_000
    rng = Stream(42)
    xs = [sample_inv_gamma(3.0, 2.0, rng) for _ in range(n)]
    assert abs(sum(xs) / n - 1.0) < 3 / math.sqrt(n)


def test_inv_gamma_tail_probability():
    # P(Y <= 1) = P(Gamma(2, rate 2) >= 1) = 3 e^-2
    n = 20_000
    rng = Stream(43)
    hits = sum(1 for _ in range(n) if sample_inv_gamma(2.0, 2.0, rng) <= 1.0)
    p = 3 * math.exp(-2)
    assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_inv_gamma_small_shape_mean():
    # shape below 1 exercises the uniform-power boost; compare medians instead
    # of means (the mean is infinite for alpha <= 1)
    n = 20_000
    rng = Stream(44)
    xs = sorted(sample_inv_gamma(0.5, 1.0, rng) for _ in range(n))
    # median of invGamma(1/2, 1): P(Y <= m) = 1/2 at m = 1/erfinv(1/2)^2 / ... ;
    # use the gamma-quantile relation P(G >= 1/m) = 1/2 with G chi^2_1/2-like
    from scipy.stats import invgamma

    med = invgamma(0.5).median()
    empirical = xs[n // 2]
    assert abs(empirical - med) / med < 0.1


def test_inv_gamma_rejects_bad_parameters():
    rng = Stream(0)
    with pytest.raises(ValueError):
        sample_inv_gamma(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_inv_gamma(1.0, -2.0, rng)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inv_gamma_rejects_non_finite_parameters(bad):
    # the rejection loop never accepted a proposal at a nan shape
    rng = Stream(0)
    for alpha, beta in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            sample_inv_gamma(alpha, beta, rng)


# at alpha = 0.01 the boost u^(1/alpha) of the gamma variate underflows on
# about 1 stream in 1000: on Stream(1, 75) to the subnormal 2.964e-321, whose
# reciprocal overflows, and on Stream(1, 150) to 0.0
SMALL_SHAPE_UNDERFLOWS = [(75, "2.964e-321"), (150, "0.0")]


@pytest.mark.parametrize("index, gamma", SMALL_SHAPE_UNDERFLOWS)
def test_inv_gamma_overflow_names_alpha_beta_and_the_stream(index, gamma):
    message = (f"inverse-gamma draw at alpha=0.01, beta=2.0 overflows a float on "
               f"Stream(1, {index}): its gamma variate is {gamma}")
    with pytest.raises(InverseGammaOverflowError, match=f"^{re.escape(message)}$"):
        sample_inv_gamma(0.01, 2.0, Stream(1, index))
    assert issubclass(InverseGammaOverflowError, ValueError)  # so the CLI exits 2


@pytest.mark.parametrize("index, gamma", SMALL_SHAPE_UNDERFLOWS)
def test_lane_inv_gamma_overflow_names_the_first_lane(index, gamma):
    # pytest turns numpy's divide and overflow warnings into errors, so the
    # lanes must raise without one; lane 3 holds the stream of the index
    lanes = _Lanes(1, np.arange(index - 3, index + 200))
    message = (f"inverse-gamma draw at alpha=0.01, beta=2.0 overflows a float on "
               f"lane 3, Stream(1, {index}): its gamma variate is {gamma}")
    with pytest.raises(InverseGammaOverflowError, match=f"^{re.escape(message)}$"):
        lanes.inv_gamma(0.01, 2.0)


def test_inv_gamma_underflow_to_zero_names_alpha_beta_and_the_stream():
    # beta / G rounded to 0.0 at beta = 5e-324 whenever G > 2, and the draw returned it
    message = ("inverse-gamma draw at alpha=3.0, beta=5e-324 underflows to 0.0 on "
               "Stream(1, 2): its gamma variate is 2.2374901967400715")
    with pytest.raises(InverseGammaOverflowError, match=f"^{re.escape(message)}$"):
        sample_inv_gamma(3.0, 5e-324, Stream(1, 2))
    with pytest.raises(InverseGammaOverflowError, match="underflows to 0.0 on Stream"):
        sample_symmetric_env(EnvSpec(2, (3.0, 3.0), 5e-324), Stream(1, 2))


def test_lane_inv_gamma_underflow_to_zero_names_the_first_lane():
    message = ("inverse-gamma draw at alpha=3.0, beta=5e-324 underflows to 0.0 on "
               "lane 1, Stream(1, 1): its gamma variate is 4.181568927428836")
    with pytest.raises(InverseGammaOverflowError, match=f"^{re.escape(message)}$"):
        _Lanes(1, np.arange(64)).inv_gamma(3.0, 5e-324)


@pytest.mark.parametrize(
    "beta, lane_digest, scalar_digest",
    [
        (1.0, "548c9fa0e71b96acf89c6c9dae571c689c78f8fcb27d4318294e4607c4e7472e",
         "c52fad657ad42d68ad83a03be6ac4e3622da3c6cc47ea73b56b1a1b291ccbe1f"),
        (0.5, "a27a27779c0ca3eddd9de4417478ac539e1f37210a0aa85b31c2357ee27de8ec",
         "8ccd41395ec08d315505a353dcba857f7509cf94ec5e079bbf339d5408557a4e"),
    ],
)
def test_draws_at_the_benchmark_parameters_are_pinned(beta, lane_digest, scalar_digest):
    # the symmetric environments of the Monte Carlo benchmark, alpha = (1, 1.5, 2),
    # on 1000 lanes and 200 scalar streams: the overflow test leaves every draw as it was
    spec = EnvSpec(3, (1.0, 1.5, 2.0), beta)
    lanes = _symmetric_rows(spec, _Lanes(5, np.arange(1000)).inv_gamma)
    scalar = [
        _symmetric_rows(spec, lambda a, b, rng=Stream(5, i): sample_inv_gamma(a, b, rng))
        for i in range(200)
    ]
    for rows, want in ((lanes, lane_digest), (scalar, scalar_digest)):
        assert hashlib.sha256(np.asarray(rows, dtype="<f8").tobytes()).hexdigest() == want


def lane_state_digests(lanes_n):
    """sha256 of the values, of the counters and of the spare normals (their
    NaN pattern, then the bits of the others), and the rejections, of
    _Lanes(12, range(lanes_n)) after inv_gamma at shapes 0.05, 0.3, 1, 2.5
    and 7 in turn."""
    lanes = _Lanes(12, np.arange(lanes_n))
    values = [lanes.inv_gamma(shape, 1.0) for shape in (0.05, 0.3, 1.0, 2.5, 7.0)]
    nan = np.isnan(lanes.spare)

    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    return (digest(np.asarray(values, dtype="<f8")), digest(lanes.count.astype("<u8")),
            digest(nan, lanes.spare[~nan].astype("<f8")), lanes.rejections)


@pytest.mark.parametrize("lanes_n, want", [
    (1, ("d6c7f15eeaf3c8dc3e8a6bebb3249f161a8381413347244afc93a4ea418cb102",
         "18d8d609947c6b82b9607704ae40d3317038e709238514de750b5c7411ba4c20",
         "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a", 1)),
    (2, ("a2aae0b0ee09bcd59ea89acd415293d03353c8ff03ab028ab79e115a44f4e0ca",
         "98a4e40c1779b579fbc8f6454e8a28ab68a4f38e0af2dfe470ee17469a20739a",
         "3c767b3178aa171b5fb31c8f2a4a281db74e10b8c5bb0ec5fc3d928321639d31", 1)),
    (7, ("e941288b300e718737c2a0bebccff857cc1ba5031e44cb253436aa6c12fb1f06",
         "77ade24e5492570138ea4e798de71aaa3afdf73034c70436dc1c5835d8e49f49",
         "0945b35a57f3b522d25aef22df3ba2a127270487f8dd3b66ef6647361825921a", 3)),
    (4096, ("99e2937d1eb49e6e89aeb0edd02bb15afa0139d28470b589996332fc4ad7be19",
            "0b9d2ab4f258c7c6d7d2a5bcd692cfbf5f456c61f061970202a6777440b7edbc",
            "a6165b18cfc239f37f45be450f47c637d89397e6c7106a7ebe2da8bac10376a8", 667)),
    (5000, ("fb3ccc398496ae4536ead3bbe963ea0246fdf2579a6615083369d4d2d94b230e",
            "98b63d6d58442aae6e794ef9b07f52a7cd81dfaba7c67294e2a9cf12228de936",
            "b2d2e65ac831f2c74abebcaea9d869b78a6caf5875ad702c76fd87292491f93b", 811)),
])
def test_lane_state_after_a_sequence_of_draws_is_pinned(lanes_n, want):
    # recorded while every draw gathered its lanes through an index array: a
    # lane that skips or takes twice a uniform or a spare normal shows in the
    # counters and spares, though maybe only in later draws' values.  Seed 12
    # has rejections in the blocks of 1, 2 and 7
    assert lane_state_digests(lanes_n) == want


def draws_in_blocks(seed, index, cuts, shape):
    """Two gamma draws at shape on the lanes of index, split at cuts into
    blocks of their own: the values, counters and spare normals (as bits, so
    the NaN pattern too) concatenated over the blocks, and the rejections."""
    parts = []
    for block in np.split(index, cuts):
        lanes = _Lanes(seed, block)
        values = np.stack([lanes.gamma(shape), lanes.gamma(shape)], axis=1)
        parts.append((values, lanes.count, lanes.spare, lanes.rejections))
    values, count, spare, rejections = zip(*parts)
    return (np.concatenate(values).view(np.uint64).tolist(), np.concatenate(count).tolist(),
            np.concatenate(spare).view(np.uint64).tolist(), sum(rejections))


@pytest.mark.parametrize("cuts", [(1,), (4096,), (2000, 2001)], ids=str)
@pytest.mark.parametrize("shape", [0.05, 1.0, 7.0])
def test_a_lanes_draws_do_not_depend_on_its_block_mates(shape, cuts):
    # each draw gathers its lanes through an index array, and _CHUNK splits the
    # indices into blocks: 4097 indices drawn whole or as blocks, one of size 1
    seed, index = 12, np.arange(1000, 5097)
    whole = draws_in_blocks(seed, index, (), shape)
    assert draws_in_blocks(seed, index, cuts, shape) == whole
    assert whole[3] > 0  # rejection rounds ran


# -- environments ---------------------------------------------------------------


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(2, (1.0,), 1.0)
    with pytest.raises(ValueError):
        EnvSpec(2, (1.0, -1.0), 1.0)
    with pytest.raises(ValueError):
        EnvSpec(2, (1.0, 1.0), 0.0)
    assert EnvSpec(2, [1, 2], 1.0).alpha == (1.0, 2.0)


def test_env_spec_rejects_an_overflowing_pair_sum_naming_the_pair():
    # the pair sums are the shapes of the off-diagonal draws; at (1e308, 1e308)
    # the scalar draw once raised an unnamed error, and the lanes returned 1.0
    for call, pair in ((lambda: EnvSpec(2, (1e308, 1e308), 1.0), "alpha[0] + alpha[1]"),
                       (lambda: EnvSpec(3, (1.0, 1e308, 1e308), 1.0), "alpha[1] + alpha[2]"),
                       (lambda: check_lukacs(1e308, 1e308, samples=10, seed=0), "a + b")):
        with pytest.raises(ValueError, match=f"^{re.escape(pair)} must be positive and finite, got inf$"):
            call()
    assert EnvSpec(1, (1e308,), 1.0).alpha == (1e308,)  # no pair, nothing to overflow


# (call, message): each boundary that takes a positive parameter, at nan and inf
NON_FINITE_PARAMETERS = {
    "EnvSpec-alpha": (lambda v: EnvSpec(2, (1.0, v), 1.0), "alpha[1] must be positive and finite"),
    "EnvSpec-beta": (lambda v: EnvSpec(2, (1.0, 1.0), v), "beta must be positive and finite"),
    "normalization_c-alpha": (
        lambda v: normalization_c((v, 1.0), 1.0), "alpha[0] must be positive and finite"
    ),
    "normalization_c-beta": (
        lambda v: normalization_c((1.0, 1.0), v), "beta must be positive and finite"
    ),
    "check_lukacs-b": (
        lambda v: check_lukacs(1.0, v, samples=10, seed=0), "b must be positive and finite"
    ),
    "laplace_mc-r": (
        lambda v: laplace_mc(EnvSpec(2, (1.0, 1.0), 1.0), [0.5, v], samples=10, seed=0),
        "Laplace parameter r[1] must be nonnegative and finite",
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("boundary", NON_FINITE_PARAMETERS)
def test_non_finite_parameters_raise_naming_the_parameter(boundary, bad):
    call, message = NON_FINITE_PARAMETERS[boundary]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {bad!r}$"):
        call(bad)


# sha256 of the rows and Burge diagonal of sample_symmetric_env, and of the
# rows of sample_replica_env, over seeds 0, 7 and 2^40 + 3 and indices
# 0..39 at alpha = PIN_ALPHA[:n], beta = 0.75; the rows recorded while the
# samplers drew through sample_inv_gamma and built their arrays with from_rows,
# the Burge diagonals taken again when d and d^{-1} took their ratio forms
PIN_ALPHA = (0.3, 1.5, 0.7, 2.0, 0.45)
PER_SAMPLE_PINS = {
    1: ("507a658802286724cf0896c0f5b85c5737e43a61527323329ddd4c246afd063c",
        "76d3f8654b53627927266026ef2e9b981f39c32c0e4addfa600a103d7c84da01"),
    2: ("582412881d2514b893488f260c9f768e599fedf4f7f6fcf519eeb4b9437137ea",
        "6bb6f89031dae64340b1793c544034c22f0c6d041179293c018289646d3060e2"),
    3: ("42e383d008cc6f5fb47fb05da3cd6c0485d7922ce7f90f532098f0fed6222259",
        "94d43872b1fd697cdd2a35f7931b2163f1c3903e063d17b0312154df4f712168"),
    4: ("3f14ad9a00ba988e01e83719599c93cdf855d17f29146bca19345ee15f09fa6a",
        "090f88b28679ec22763cb493bf3e100ae6a4029e57efbd401b30be825c452e40"),
    5: ("aaa9b307bd087c3c1bb273743d9ef1caa85bd8095fbd13ca7abb0e93e3e74035",
        "f93ef5abf13fc0700c6bfb7f5b47f3c545e12bd829344123d68c822d8f97981e"),
}


@pytest.mark.parametrize("n", sorted(PER_SAMPLE_PINS))
def test_per_sample_environments_and_diagonals_are_pinned(n):
    spec = EnvSpec(n, PIN_ALPHA[:n], 0.75)
    sym, rep = hashlib.sha256(), hashlib.sha256()
    for seed in (0, 7, 2**40 + 3):
        for i in range(40):
            env = sample_symmetric_env(spec, Stream(seed, i))
            sym.update(np.asarray([*env.rows, burge_partition_vector(env)], dtype="<f8").tobytes())
            rows = sample_replica_env(spec, Stream(seed, i)).rows
            rep.update(np.asarray([x for row in rows for x in row], dtype="<f8").tobytes())
    assert (sym.hexdigest(), rep.hexdigest()) == PER_SAMPLE_PINS[n]


def test_symmetric_env_shape_and_symmetry():
    spec = EnvSpec(3, (1.0, 1.5, 2.0), 0.5)
    env = sample_symmetric_env(spec, Stream(5))
    assert env.shape == rectangle(3, 3)
    assert env.is_symmetric()
    assert all(env.get(i, j) > 0 for i, j in env.shape.boxes())


def test_replica_env_is_the_column_reversed_square_root():
    spec = EnvSpec(3, (1.0, 1.5, 2.0), 0.5)
    env = sample_symmetric_env(spec, Stream(9))
    rep = sample_replica_env(spec, Stream(9))
    n = spec.n
    assert rep.shape == Shape((3, 2, 1))
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            if i + j == n + 1:
                assert rep.get(i, j) ** 2 == pytest.approx(env.get(i, i), rel=1e-15)
            else:
                assert rep.get(i, j) == env.get(i, n - j + 1)


def test_off_diagonal_marginal_mean():
    # alpha = (2, 2) puts invGamma(4, 1) off the diagonal, mean 1/3
    n = 20_000
    spec = EnvSpec(2, (2.0, 2.0), 1.0)
    xs = [sample_symmetric_env(spec, Stream(6, i)).get(1, 2) for i in range(n)]
    mean = sum(xs) / n
    # var of invGamma(4,1) is 1/(9*2)
    assert abs(mean - 1 / 3) < 3 * math.sqrt(1 / 18 / n)


# -- partition functions ---------------------------------------------------------------


def test_partition_vector_all_ones():
    ones = ShapedArray.from_rows([[Fraction(1)] * 2] * 2, R)
    assert burge_partition_vector(ones) == (Fraction(1, 2), Fraction(2))


def test_partition_vector_needs_square():
    arr = random_array(rectangle(2, 3), R, random.Random(0))
    with pytest.raises(ValueError):
        burge_partition_vector(arr)


def test_last_k_diagonal_products_are_dual_path_sums():
    for n, seed in [(2, 0), (3, 1), (4, 2)]:
        w = random_array(rectangle(n, n), R, random.Random(seed))
        vec = burge_partition_vector(w)
        for k in range(1, n + 1):
            expected = path_sum(w, enum_nonintersecting(n, n, k, dual=True))
            assert math.prod(vec[-k:]) == expected


def test_replica_routes_agree_exactly():
    for n in (1, 2, 3, 4, 5):
        w = staircase_weights(n, seed=n)
        assert replica_Z(w, via="oracle") == replica_Z(w, via="persymmetric-burge")


def test_replica_rejects_bad_input():
    w = staircase_weights(3, seed=0)
    with pytest.raises(ValueError):
        replica_Z(w, via="dynamic")
    square = random_array(rectangle(2, 2), R, random.Random(0))
    with pytest.raises(ValueError):
        replica_Z(square)


def test_replica_matches_a_hand_sum():
    # n = 2: endpoints (1,2) and (2,1); Z'_{1,2} = w11 w12, Z'_{2,1} = w11 w21
    w = ShapedArray.from_rows([[Fraction(2), Fraction(3)], [Fraction(5)]], R)
    assert replica_Z(w) == Fraction(6) ** 2 + Fraction(10) ** 2


def test_check_replica_routes_report():
    spec = EnvSpec(3, (1, 1.5, 2), 1.0)
    report = check_replica_routes(spec, samples=6, seed=4, tol=1e-10)
    assert list(report) == ["test", "n", "alpha", "beta", "samples", "seed", "max_relerr", "pass"]
    assert report["test"] == "replica-routes" and report["alpha"] == [1.0, 1.5, 2.0]
    assert report["max_relerr"] < 1e-10 and report["pass"] is True
    assert check_replica_routes(spec, samples=6, seed=4, tol=0.0)["pass"] is (
        report["max_relerr"] == 0.0
    )
    with pytest.raises(ValueError, match="samples must be at least 1"):
        check_replica_routes(spec, samples=0, seed=4, tol=1e-10)


# -- Monte Carlo ---------------------------------------------------------------


def test_laplace_at_zero_is_exact():
    res = laplace_mc(EnvSpec(2, (1.0, 1.0), 0.5), [0.0], samples=500, seed=3)
    assert res == [MCResult(0.0, 1.0, 0.0, 500, 3)]


def test_laplace_is_deterministic():
    spec = EnvSpec(2, (1.0, 1.0), 0.5)
    one = laplace_mc(spec, [0.5, 1.0], samples=9_000, seed=9)
    again = laplace_mc(spec, [0.5, 1.0], samples=9_000, seed=9)
    assert one == again


def test_laplace_decreases_in_r():
    spec = EnvSpec(3, (1.0, 1.5, 2.0), 1.0)
    res = laplace_mc(spec, [0.25, 0.5, 1.0, 2.0], samples=2_000, seed=4)
    estimates = [r.estimate for r in res]
    assert estimates == sorted(estimates, reverse=True)
    assert all(0 < e < 1 for e in estimates)
    with pytest.raises(ValueError):
        laplace_mc(spec, [-1.0], samples=10, seed=0)


def test_laplace_needs_two_samples_before_any_draw(monkeypatch):
    # one sample has no standard error: the variance divided by max(samples - 1, 1)
    # and reported a standard error of 0.0
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before checking samples")

    spec = EnvSpec(2, (1.0, 1.5), 1.0)
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            laplace_mc(spec, [0.5], samples=samples, seed=1)
    monkeypatch.setattr("gburge.polymer._collect_samples", unreachable)
    with pytest.raises(ValueError, match="^samples must be at least 2 for the standard errors, got 1$"):
        laplace_mc(spec, [0.5], samples=1, seed=1)


def test_ks_two_sample_calibration():
    xs = [Stream(2, i).uniform() for i in range(3000)]
    ys = [Stream(3, i).uniform() for i in range(3000)]
    stat, p = ks_two_sample(xs, ys)
    assert 0 <= stat < 0.05 and p > 0.01
    _, p_shifted = ks_two_sample(xs, [y * 0.5 for y in ys])
    assert p_shifted < 1e-10
    with pytest.raises(ValueError):
        ks_two_sample([], xs)


def _ks_pairs():
    """Seeded sample pairs: equal and unequal sizes, continuous and tied."""
    rng = np.random.default_rng(17)
    for m, n in [(2, 2), (1, 7), (25, 25), (40, 13), (300, 301), (500, 64)]:
        yield rng.standard_normal(m), rng.standard_normal(n) + 0.2
        yield rng.integers(0, 4, m).astype(float), rng.integers(0, 5, n).astype(float)


@pytest.mark.parametrize("xs, ys", list(_ks_pairs()))
def test_ks_statistic_is_scipys(xs, ys):
    from scipy.stats import ks_2samp

    stat, _ = ks_two_sample(xs, ys)
    assert stat == ks_2samp(xs, ys, method="asymp").statistic


def test_ks_pvalue_is_the_kolmogorov_law():
    from scipy.stats import kstwobign

    # lam < 1 runs the theta series, lam >= 1 the alternating one
    for lam in [-1.0, 0.0, *np.linspace(0.01, 5, 500)]:
        assert abs(_kolmogorov_sf(lam) - kstwobign.sf(lam)) <= 1e-12, lam
    for xs, ys in _ks_pairs():
        stat, p = ks_two_sample(xs, ys)
        en = len(xs) * len(ys) / (len(xs) + len(ys))
        assert abs(p - kstwobign.sf(stat * math.sqrt(en))) <= 1e-12


@pytest.mark.parametrize("n", [25, 50, 250])
def test_ks_pvalue_is_close_to_the_exact_law(n):
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(n)
    for _ in range(20):
        xs, ys = rng.standard_normal(n), rng.standard_normal(n)
        exact = ks_2samp(xs, ys, method="exact").pvalue
        assert abs(ks_two_sample(xs, ys)[1] - exact) <= 0.012


def test_z_zstar_report():
    rep = check_Z_Zstar(2, (1.0, 1.0), samples=4_000, seed=11)
    assert rep["pass"] and rep["beta"] == 0.5
    assert rep["pvalue"] > 0.01
    assert rep["samples"] == 4_000 and rep["n"] == 2


def test_z_zstar_three_by_three():
    rep = check_Z_Zstar(3, (1.0, 1.5, 2.0), samples=4_000, seed=11)
    assert rep["pass"]


def test_lukacs_report():
    rep = check_lukacs(1.0, 2.0, samples=4_000, seed=12)
    assert rep["pass"] and rep["a"] == 1.0 and rep["b"] == 2.0
    rep = check_lukacs(0.5, 0.5, samples=4_000, seed=13)
    assert rep["pass"]
    with pytest.raises(ValueError):
        check_lukacs(0.0, 1.0, samples=10, seed=0)


def test_lukacs_detects_a_wrong_composite():
    # (X+Y)Z^2 against X Y Z with mismatched Z-parameter should fail clearly
    def bad_pair(i):
        rng = Stream(77, i)
        x = sample_inv_gamma(1.0, 1.0, rng)
        y = sample_inv_gamma(2.0, 1.0, rng)
        z = sample_inv_gamma(5.0, 1.0, rng)
        return (x + y) * z * z, x * y * z

    pairs = [bad_pair(i) for i in range(4000)]
    _, p = ks_two_sample([a for a, _ in pairs], [b for _, b in pairs])
    assert p < 1e-6


@pytest.mark.parametrize("samples", [0, -1])
def test_monte_carlo_checks_need_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        laplace_mc(EnvSpec(2, (1.0, 1.0), 0.5), [1.0], samples=samples, seed=0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        check_Z_Zstar(2, (1.0, 1.0), samples=samples, seed=0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        check_lukacs(1.0, 2.0, samples=samples, seed=0)


# -- lanes against the scalar oracle ---------------------------------------------------


def lane_mismatch(lane_values, scalar_values, rel=1e-12):
    """(values off by more than rel relative, values not bit-identical)."""
    lane_values = np.asarray(lane_values)
    scalar_values = np.asarray(scalar_values)
    off = np.abs(lane_values - scalar_values) > rel * np.abs(scalar_values)
    return int(np.count_nonzero(off)), int(np.count_nonzero(lane_values != scalar_values))


@pytest.mark.parametrize("shape", [0.5, 1.0, 3.0])
def test_lane_gamma_draws_match_the_scalar_sampler(shape):
    # two draws per lane, so the second starts from the first's spare normal
    lanes_n, seed = 3000, 31
    lanes = _Lanes(seed, np.arange(lanes_n))
    drawn = np.stack([lanes.gamma(shape), lanes.gamma(shape)], axis=1)
    streams = [Stream(seed, i) for i in range(lanes_n)]
    scalar = [(_sample_gamma(shape, s), _sample_gamma(shape, s)) for s in streams]
    off, inexact = lane_mismatch(drawn, scalar)
    assert off == 0, f"{off} draws off by > 1e-12; {inexact} of {2 * lanes_n} not bit-identical"
    assert lanes.keys.tolist() == [s._base for s in streams]
    counts = [s._count for s in streams]
    flipped = sum(a != b for a, b in zip(lanes.count.tolist(), counts))
    assert flipped == 0, (
        f"{flipped} lanes drew a different number of uniforms (a flipped rejection); "
        f"{inexact} of {2 * lanes_n} draws not bit-identical"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lane_partition_functions_match_the_scalar_path(n):
    spec = EnvSpec(n, (1.0, 1.5, 2.0, 0.5, 3.0)[:n], 0.5)
    seed, count = 32, 1000
    index = np.arange(count)
    lane = {
        "Z": _corner_Z(_symmetric_rows(spec, _Lanes(seed, index, 0).inv_gamma)),
        "Z*": _dual_Z(_symmetric_rows(spec, _Lanes(seed, index, 1).inv_gamma)),
        "Z_repl": _staircase_Z_replica(_replica_rows(spec, _Lanes(seed, index).inv_gamma, np.sqrt)),
    }
    scalar = {name: [] for name in lane}
    for i in range(count):
        scalar["Z"].append(_corner_Z(sample_symmetric_env(spec, Stream(seed, i, 0)).rows))
        scalar["Z*"].append(_dual_Z(sample_symmetric_env(spec, Stream(seed, i, 1)).rows))
        scalar["Z_repl"].append(_staircase_Z_replica(sample_replica_env(spec, Stream(seed, i)).rows))
    for name in lane:
        off, inexact = lane_mismatch(lane[name], scalar[name])
        assert off == 0, (
            f"{name} at n = {n}: {off} lanes off by > 1e-12, {inexact} of {count} not bit-identical"
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_lane_burge_diagonals_match_the_scalar_path(n):
    # indices 2600..5599 straddle the first block boundary at _CHUNK = 4096
    spec = EnvSpec(n, tuple(1.0 + k / 4 for k in range(n)), 0.75)
    seed, lo, hi = 35, _CHUNK - 1496, _CHUNK + 1504
    lane, _ = _burge_diagonals(spec, hi, seed)
    assert [len(t) for t in lane] == [hi] * n
    lane = np.stack(lane, axis=1)[lo:]
    scalar = [
        burge_partition_vector(sample_symmetric_env(spec, Stream(seed, i))) for i in range(lo, hi)
    ]
    off, _ = lane_mismatch(lane, scalar)
    inexact_lanes = int(np.count_nonzero((lane != np.asarray(scalar)).any(axis=1)))
    assert off == 0, (
        f"n = {n}: {off} diagonal entries off by > 1e-12; "
        f"{inexact_lanes} of {hi - lo} lanes not bit-identical"
    )


def test_monte_carlo_checks_match_the_scalar_path():
    # 4200 samples cross the 4096-lane block boundary
    samples, seed = 4200, 33
    spec = EnvSpec(2, (1.0, 1.5), 1.0)
    z = [_staircase_Z_replica(sample_replica_env(spec, Stream(seed, i)).rows) for i in range(samples)]
    (res,) = laplace_mc(spec, [1.0], samples=samples, seed=seed)
    assert res.estimate == pytest.approx(math.fsum(math.exp(-v) for v in z) / samples, rel=1e-12)

    half = EnvSpec(2, (1.0, 1.5), 0.5)
    xs = [_corner_Z(sample_symmetric_env(half, Stream(seed, i, 0)).rows) for i in range(samples)]
    ys = [_dual_Z(sample_symmetric_env(half, Stream(seed, i, 1)).rows) for i in range(samples)]
    rep = check_Z_Zstar(2, (1.0, 1.5), samples=samples, seed=seed)
    assert (rep["statistic"], rep["pvalue"]) == ks_two_sample(xs, ys)

    def composite(i, tag):
        rng = Stream(seed, i, tag)
        x, y, z = (sample_inv_gamma(p, 1.0, rng) for p in (0.5, 2.0, 2.5))
        return (x + y) * z * z if tag == 0 else x * y * z

    lhs = [composite(i, 0) for i in range(samples)]
    rhs = [composite(i, 1) for i in range(samples)]
    rep = check_lukacs(0.5, 2.0, samples=samples, seed=seed)
    assert (rep["statistic"], rep["pvalue"]) == ks_two_sample(lhs, rhs)


def _hexed(value):
    """value with every float written as float.hex, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def test_laplace_known_answers_across_blocks():
    # three blocks, the last one short: the per-block left folds and their
    # compensated total in index order fix every bit
    spec = EnvSpec(3, (1.0, 1.5, 2.0), 1.0)
    results = laplace_mc(spec, [0.5, 1.0, 2.0], samples=2 * _CHUNK + 7, seed=41)
    assert [(res.estimate.hex(), res.stderr.hex()) for res in results] == [
        ("0x1.7b355d54769afp-1", "0x1.b705fcca569f7p-9"),
        ("0x1.47f2b1fea7667p-1", "0x1.e9cf1ed860dd7p-9"),
        ("0x1.0cac7e982326ep-1", "0x1.00d64cbffc993p-8"),
    ]


ALPHA3_HEX = ["0x1.0000000000000p+0", "0x1.8000000000000p+0", "0x1.0000000000000p+1"]


@pytest.mark.parametrize(
    "check, want",
    [
        (
            lambda: check_Z_Zstar(3, (1.0, 1.5, 2.0), samples=_CHUNK + 9, seed=42),
            {
                "test": "ks-zzstar", "n": 3, "alpha": ALPHA3_HEX, "beta": "0x1.0000000000000p-1",
                "samples": 4105, "seed": 42, "statistic": "0x1.8f1f7e48f6f40p-7",
                "pvalue": "0x1.d78a28b74e64cp-1", "pass": True,
                "diagnostics": {"uniforms": 101582, "gamma_rejections": 1099},
            },
        ),
        (
            lambda: check_lukacs(0.5, 2.0, samples=_CHUNK + 9, seed=43),
            {
                "test": "lukacs", "a": "0x1.0000000000000p-1", "b": "0x1.0000000000000p+1",
                "samples": 4105, "seed": 43, "statistic": "0x1.971b00cf8b420p-6",
                "pvalue": "0x1.44aa82ba95123p-3", "pass": True,
                "diagnostics": {"uniforms": 66222, "gamma_rejections": 500},
            },
        ),
        (
            lambda: check_replica_routes(
                EnvSpec(3, (1.0, 1.5, 2.0), 1.0), samples=_CHUNK + 9, seed=44, tol=1e-10
            ),
            {
                "test": "replica-routes", "n": 3, "alpha": ALPHA3_HEX,
                "beta": "0x1.0000000000000p+0", "samples": 4105, "seed": 44,
                "max_relerr": "0x1.a61f11cf02df0p-50", "pass": True,
            },
        ),
    ],
    ids=["ks-zzstar", "lukacs", "replica-routes"],
)
def test_report_known_answers_across_blocks(check, want):
    # _CHUNK + 9 samples: a full block and a short one; the keys keep their order
    assert list(_hexed(check()).items()) == list(want.items())


class CountingStream(Stream):
    """A scalar Stream that counts its normals: one per gamma proposal."""

    def __init__(self, *keys):
        super().__init__(*keys)
        self.normals = 0

    def normal(self):
        self.normals += 1
        return super().normal()


def test_report_diagnostics_count_the_scalar_draws():
    samples, seed = 300, 34
    spec = EnvSpec(2, (1.0, 0.5), 0.5)
    uniforms = rejections = 0
    for i in range(samples):
        for tag in (0, 1):
            rng = CountingStream(seed, i, tag)
            sample_symmetric_env(spec, rng)
            uniforms += rng._count
            rejections += rng.normals - 3  # three entries, each one accepted proposal
    rep = check_Z_Zstar(2, (1.0, 0.5), samples=samples, seed=seed)
    assert rep["diagnostics"] == {"uniforms": uniforms, "gamma_rejections": rejections}
    assert rejections > 0

    uniforms = rejections = 0
    for i in range(samples):
        for tag in (0, 1):
            rng = CountingStream(seed, i, tag)
            for p in (0.5, 2.0, 2.5):
                sample_inv_gamma(p, 1.0, rng)
            uniforms += rng._count
            rejections += rng.normals - 3
    rep = check_lukacs(0.5, 2.0, samples=samples, seed=seed)
    assert rep["diagnostics"] == {"uniforms": uniforms, "gamma_rejections": rejections}


# -- normalization constant ---------------------------------------------------------------


def test_normalization_small_case():
    # beta^-2 * Gamma(1)^2 * Gamma(2) = 1/4 at alpha = (1,1), beta = 2
    assert normalization_c((1.0, 1.0), 2.0) == pytest.approx(0.25, rel=1e-14)
    assert normalization_c((1.0, 1.0), 2.0, log=True) == pytest.approx(math.log(0.25))


@pytest.mark.parametrize("log", [True, False], ids=["log", "exp"])
@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ((1e306, 1.0), 1.0, r": log Gamma\(alpha\[0\] = 1e\+306\) overflows a float"),
        ((1.0, 1e306), 1e-300, r": log Gamma\(alpha\[1\] = 1e\+306\) overflows a float"),
        # each log Gamma(alpha_i) is finite; that of the pair sum is not
        ((1.3e305, 1.0, 1.3e305), 1.0,
         r": log Gamma\(alpha\[0\] \+ alpha\[2\] = 2\.6e\+305\) overflows a float"),
        # the alpha_i are named before their infinite pair sum
        ((1e308, 1e308), 1.0, r": log Gamma\(alpha\[0\] = 1e\+308\) overflows a float"),
        # every log-gamma is finite, and their sum is not
        ((1e305, 1e305), 1.0, r": log c = inf overflows a float"),
    ],
    ids=["alpha0", "alpha1", "pair-sum", "alpha-before-pair-sum", "log-c"],
)
def test_normalization_overflow_names_the_constant_and_its_term(alpha, beta, message, log):
    # the log form overflows too, so it raises the same error
    c = re.escape(f"normalization constant c(alpha={tuple(float(a) for a in alpha)}, beta={beta})")
    with pytest.raises(OverflowError, match=f"^{c}{message}$"):
        normalization_c(alpha, beta, log=log)


def test_normalization_log_form_survives_overflow():
    alpha = (200.0, 300.0)
    log_c = normalization_c(alpha, 1.0, log=True)
    assert log_c > 709  # exp would overflow
    with pytest.raises(OverflowError):
        normalization_c(alpha, 1.0)
    with pytest.raises(ValueError):
        normalization_c((1.0, -1.0), 1.0)
