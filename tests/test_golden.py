"""Golden digests: exact traces of a fixed matrix of runs.

Invariant tests and ensemble statistics let a refactor shift results
unnoticed; these SHA-256 digests of the per-bank and aggregate CSVs at the
acceptance master seed do not.  A change that alters the bits on purpose
re-blesses the digests here and says why in CHANGES.md.
"""

import ast
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minibank
from minibank import (
    MatchingMode,
    ReserveBase,
    ScenarioConfig,
    compare_phis,
    config_to_text,
    derive_seeds,
    emit_compare_summary,
    emit_ensemble_artifacts,
    emit_trace_artifacts,
    get_preset,
    run_ensemble,
    run_scenario,
)

SEED = 20260808

# (case id, preset, overrides, aggregate.csv digest, per_bank.csv digest)
GOLDEN = [
    ("fig1_left", "fig1_left", {},
     "8270174dcf83a56ba2a75f64e3258971594cc339c86b1abd72f95b0b6c51eee6",
     "27dfabcf600c32d9ff068f7b04672b31a87122e9a4752b6e0e1412ef7648236a"),
    ("fig1_right", "fig1_right", {},
     "e55ec6209d4ed01501d08403bda9e00577f78c28c5736d96be45f9749d70934e",
     "efeccdfe1f32cb28d8d9aae0a7772104ff39616b45008eae4d8d4d11b13aa5f7"),
    ("fig2_left", "fig2_left", {},
     "4d767e3f14a4be41319fd3628194aa537c4460254106e075997028a11983811e",
     "58469ea1a55084bbff1588a856b64e74c0736b8d81541d4a37b7ab4d1544dbe4"),
    ("fig2_mid", "fig2_mid", {},
     "76fdd9466c59f4d9430c78711e315cac5729e40696e53d1d2699dd0db2c31920",
     "95fcbc05a6071122b154e537237d12304aceaa89333f23aaeb4ab1f396fce926"),
    ("fig2_right", "fig2_right", {},
     "7f966b4d9642137887bad18d81087fdbdb04ea5c5866848a65c2a23015efde7e",
     "4854eab9aea61c55b93f2d80c0d22d51443d6f2b5ea6a9fb5f77701e7962b30d"),
    ("baseline_perfect", "baseline_perfect", {},
     "aa01616f47b85445dc7bd62532807f37a8601171086becc5d93918d377b5201d",
     "e1bcbd337704c8dc521ffc49e54c7fbbb0f6939f395643579c3f1783305dde23"),
    ("baseline_smooth", "baseline_smooth", {},
     "a59b611f0b040339ff31a775a75fce8c365adbd42fd2172f3c8c40e84b339fa5",
     "d26e96cb84898900cc355903312e3c07964a8054d700af98946c05cbbb17055c"),
    ("baseline_distressed", "baseline_distressed", {},
     "00f13263ceb08abecceb6000968ff64e51e67c31f610db294a7a8f05b4ed3abc",
     "ee68730751d8f9b4f89fa4df04dbfe2527dd54c6306bbc6ee1ec280ce48f3119"),
    # phi 0.4, not 0: at phi 0 every potential pair trades under either
    # matching rule, so endogenous scores would leave the bits unchanged
    ("endogenous", "baseline_smooth", dict(matching=MatchingMode.ENDOGENOUS, alpha=1.0, lam=1.0),
     "b972f95fd8adb6207ce59271eae3149b5ad5b7428a377803a40d1fff1732eaed",
     "ef8d59664247f303cf7fe99c7cbad9352f403c7b1ceb0b81e8facb6561df9069"),
    ("securitised", "baseline_perfect", dict(reserve_base=ReserveBase.SECURITISED),
     "40e6501cd2383e0fd689ea0497121f83a5eb702730cfae2230dd99b1b75cf8d8",
     "2191c56a9ba2f8fa097cefbe36495443b00448224606936cb8496d3448e3cdf8"),
    ("no_transfer_on_issue", "baseline_perfect", dict(transfer_on_issue=False),
     "f451c2a29bf03d48583574e6f16f1c21460872032bda614013c56b54f5b7e9f9",
     "ee1d63a001a3207b9f3dd65c941a1b5752b1e31ce2048523062da372497844b4"),
    # the bench's wide_banks scale: lenders hold many claims each, so the
    # claim order and the partial sums of reassign_claims are exercised
    ("wide_banks", "baseline_perfect", dict(B=50, T=10),
     "cf82e376e4903504a489cabc2793351772bad40dba42bba9192608d4bd006d28",
     "046a94e4e7e3a507c1b072f43c4f96104e06d1450496efae9d5fbf28127eccbf"),
    # one pair of payment matrices drawn for the whole run
    ("fixed_payment_matrix", "baseline_perfect", dict(fixed_payment_matrix=True),
     "2758d5a3b73c84002f65a2b04e855f41289d9e4097c3a86639716d4702b892ae",
     "6d35fb7f2c9e425b3996e7242a9a2ad287597260c831d429ea0ed93443037749"),
    # more than 64 banks and customers: both payment matrices are drawn in
    # two row blocks, so a block that aliases another would move the bits
    ("two_row_blocks", "baseline_perfect", dict(B=70, C=130, T=6),
     "12a3183f694feb6e040b27cdfa3e74fe1e57cac94a1c853241930a6104f2b1cf",
     "39c7fda69d5db83b4e49881ed000fc621c33a7c6a754086f7a53fa9bb5d0fce8"),
]


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digests(preset, overrides, out_dir):
    trace = run_scenario(get_preset(preset, seed=SEED, **overrides))
    paths = emit_trace_artifacts(trace, out_dir)
    return {name: _sha(paths[name]) for name in ("aggregate", "per_bank")}


@pytest.mark.parametrize("preset,overrides,aggregate,per_bank",
                         [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_artifact_digests(tmp_path, preset, overrides, aggregate, per_bank):
    assert _digests(preset, overrides, tmp_path) == {"aggregate": aggregate, "per_bank": per_bank}


# The artifacts the goldens above do not cover, from one small config:
# baseline_perfect, seed 3, T=5, and 3 seeds where a run is an ensemble.
PIN_RUN = {
    "histogram": "0ac6804aff53f87153c8a9331ebbea64784459376bd185b84828131fe9c06986",
    "figure": "5d105e8c24de773e9c57f1f817beca671c3118deac1fadf68daf9aa4ac4cc2c2",
}
PIN_ENSEMBLE = {
    "aggregate": "3949e4c9841afc598f5e7cfdd211c11c649abd198919e87d6c773fae420bf17d",
    "metrics": "5c747871014967fa6662254ac1223fffaebead23a8fb9c7efe254aae0e4f43e5",
}
PIN_COMPARE = "9cffaae1d3946ab56834ee0f577b98ec06b129709c743987723114678a5960e3"


def _pin_config():
    return get_preset("baseline_perfect", seed=3, T=5)


def test_histogram_and_figure_digests(tmp_path):
    paths = emit_trace_artifacts(run_scenario(_pin_config()), tmp_path, figure=5)
    assert {name: _sha(paths[name]) for name in PIN_RUN} == PIN_RUN


@pytest.mark.parametrize("numpy_seeds", [False, True], ids=["int_seeds", "numpy_seeds"])
def test_ensemble_digests(tmp_path, numpy_seeds):
    """An explicit seed list of NumPy integers writes the same bytes."""
    seeds = derive_seeds(_pin_config().seed, 3)
    if numpy_seeds:
        seeds = list(np.array(seeds, dtype=np.uint64))
    paths = emit_ensemble_artifacts(run_ensemble(_pin_config(), seeds=seeds), tmp_path)
    assert {name: _sha(paths[name]) for name in PIN_ENSEMBLE} == PIN_ENSEMBLE


def test_compare_summary_digest(tmp_path):
    path = emit_compare_summary(compare_phis(_pin_config(), n_seeds=3), tmp_path)
    assert _sha(path) == PIN_COMPARE


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a NumPy that only prints its build config
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _simd_off_env() -> dict[str, str]:
    """Switch off every SIMD target NumPy would dispatch to on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return {}
    targets = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)} if targets else {}


_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden import _digests
print(json.dumps(_digests("baseline_perfect", {"T": 10}, sys.argv[2])))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not _dynamic_openblas(),
                    reason="needs x86-64 NumPy on a DYNAMIC_ARCH OpenBLAS")
def test_digests_independent_of_blas_kernel_and_simd(tmp_path):
    """The same digests in processes that run another BLAS kernel, one BLAS
    thread, or NumPy without its SIMD loops."""
    expected = _digests("baseline_perfect", {"T": 10}, tmp_path / "here")
    src = str(Path(minibank.__file__).resolve().parents[1])
    env_sets = [{"OPENBLAS_CORETYPE": "Nehalem"}, {"OPENBLAS_NUM_THREADS": "1"}, _simd_off_env()]
    for i, extra in enumerate(filter(None, env_sets)):
        env = {**os.environ, **extra,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(Path(__file__).parent), str(tmp_path / f"child{i}")],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert json.loads(child.stdout) == expected, extra


# `@` and the NumPy and SciPy names that may dispatch to BLAS; np.outer does not.
_BLAS_NAMES = {"@", "dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def test_no_step_calls_blas():
    """No module of the package uses `@`, a BLAS product or anything under
    `linalg`: the check above only runs where OpenBLAS can be swapped."""
    found = []
    for path in sorted(Path(minibank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = {"@"}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & _BLAS_NAMES]
    assert not found



def test_no_unused_imports():
    """Every name a module of the package imports is read somewhere in it
    (``__init__`` re-exports, so it is left out)."""
    found = []
    for path in sorted(Path(minibank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found


def test_every_definition_is_used():
    """Every function, class and method the package defines (dunders aside)
    is named in the package or the bench besides its own definition: API
    that only tests call lives in the tests.  Names, attributes and import
    aliases count as uses; ``__init__``'s re-exports do not.

    The check matches names only, so it cannot see a test-only definition
    whose name something else shares: it passes a ``BankBalanceSheets.copy``
    because ``ndarray.copy`` is named ``copy`` too.
    """
    package = Path(minibank.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    defined, used = [], set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == package:
                if not node.name.startswith("__"):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and path != package / "__init__.py":
                used.add(node.asname or node.name)
    assert not [f"{where} {name}" for where, name in defined if name not in used]


# The modules of the state and its phases: they trust a validated config and
# the state `initialise` built, so none of them raises (or names) ConfigError.
_PHASE_MODULES = ("stochastics", "ledger", "interbank", "payments", "bank_credit",
                  "central_bank", "equity")


def test_no_phase_checks_config():
    """Every config rule lives in ScenarioConfig.validate: no phase module
    names ConfigError."""
    found = []
    for module in _PHASE_MODULES:
        path = Path(minibank.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "ConfigError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_only_the_ledger_reads_the_customer_map():
    """The book stores loan deposits per bank, so no module but ledger.py
    scatters a per-bank number out to customers through ``.assignment``."""
    found = []
    for path in sorted(Path(minibank.__file__).parent.glob("*.py")):
        if path.name == "ledger.py":
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Attribute) and node.attr == "assignment"]
    assert not found


# SHA-256 of config_to_text, the text that config_hash digests and the
# manifest lists: a key dropped, renamed, reordered or formatted otherwise
# changes one of these.  The presets write alpha and lambda as none; the
# endogenous case writes them as numbers under the lambda key.
CONFIG_TEXT = [
    ("fig1_left", "f2fea0065c6be63e3e639e4d1d1595cf0996918d2c5c1fb1d8dc0f385da250eb"),
    ("fig1_right", "1d7c7b5a47c0fac3910fd359a114c86290f10e8dc9fd35c2da080245c732d85a"),
    ("fig2_left", "f169ecc882a5df7a7341b9c7e12be9c72b5d3607de0dacc4f8358c712f8e92da"),
    ("fig2_mid", "213bd01a92b03cafef1655b60080b1afe85b096f56f4e1c1cf2e449f229003a6"),
    ("fig2_right", "cd8e054cad0a881b63f14e3897bf7e6bf2a8732b08895f84390c0283ff3b4838"),
    ("baseline_perfect", "ef8750bd27ff7df5fbe76a03467aba8a26d62c7ecd3a3abd80e199d3e432e82b"),
    ("baseline_smooth", "8ef458e1b0223510d1e3c0ed02d12cc87f5f75a2821814a01256023d0043e05b"),
    ("baseline_distressed", "f8f9663ee1f8a285732740756bfbad53887f3959370321803774adf73f691522"),
    ("endogenous", "d69d314ee23f472b57ee8af5972b985f54e9e8decb69c81dfe0297a2c9270e34"),
    ("no_preset", "f7a46a6a97152a1d8f15893315efaea97f8418a281c95eac621e5a049f03696d"),
]


def _config_case(case):
    if case == "endogenous":
        return get_preset("baseline_smooth", seed=SEED, matching=MatchingMode.ENDOGENOUS,
                          alpha=1.0, lam=1.0)
    if case == "no_preset":
        return ScenarioConfig(seed=SEED)
    return get_preset(case, seed=SEED)


@pytest.mark.parametrize("case,digest", CONFIG_TEXT, ids=[case[0] for case in CONFIG_TEXT])
def test_config_text_digests(case, digest):
    text = config_to_text(_config_case(case))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
