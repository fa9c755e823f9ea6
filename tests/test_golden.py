"""Golden digests: exact traces of a fixed matrix of runs.

Invariant tests and ensemble statistics let a refactor shift results
unnoticed; these SHA-256 digests of the per-bank and aggregate CSVs at the
acceptance master seed do not.  A change that alters the bits on purpose
re-blesses the digests here and says why in CHANGES.md.
"""

import hashlib

import pytest

from minibank import (
    MatchingMode,
    ReserveBase,
    ScenarioConfig,
    config_to_text,
    emit_trace_artifacts,
    get_preset,
    run_scenario,
)

SEED = 20260808

# (case id, preset, overrides, aggregate.csv digest, per_bank.csv digest)
GOLDEN = [
    ("fig1_left", "fig1_left", {},
     "ae83c8c6a95bee6a587f6ef35f3076eedf24ecca1790ca34be5f01eb8af856b4",
     "aa6f9e4f0908260c9f3e71ff4d6f53018c1e0ef6a0d0c8b802391a93e5c17a04"),
    ("fig1_right", "fig1_right", {},
     "43afffe89f3c2f7e1e121fcaba434183b00b00d3acd3b93fea95b7a84ed40343",
     "097cc360c8ab32225c305e5215feb8fb1d4d678f8ba795e6c99c2e75d3a4e982"),
    ("fig2_left", "fig2_left", {},
     "50fde830f52cf8873db58b937784f7890c8d8277f5b05e110552b340ad1f015f",
     "2997a90c29e14fab9711a1b75615a2945a431f52e73a006741786babaf565d71"),
    ("fig2_mid", "fig2_mid", {},
     "86c6e3b3aa19e8f0249567be9e1f66441c73bdf92fcdea28ad7d6136a2eb967e",
     "0fadc1e828dd97d2fe061206ef0d43ec38d5691bf1b900d79cb2cb08331cdaa4"),
    ("fig2_right", "fig2_right", {},
     "686f6a57adf0a321a1325081bbf62ecb4a0f85d15eb06f2596a87f8198f67f31",
     "f0083970161b120a1c347df703fee2bb11d0102792b7fca91a48f97dabefef4f"),
    ("baseline_perfect", "baseline_perfect", {},
     "2d00e2d23601b58b4a2264ff2f07a2f556c92ac657d0f5f73536120b44a1f1d9",
     "03ba3384188366f86e2db7923549d64854fddc9931d62cedb1752b52f0d51b93"),
    ("baseline_smooth", "baseline_smooth", {},
     "5f413093508dfdaeae5838a1c3872fd535366f4e68bf9056d01cfbf0bec36867",
     "aae71ec7f344dcb5cf147091d93baba293958b63acbbcfcc887babd8cd887bdc"),
    ("baseline_distressed", "baseline_distressed", {},
     "769b53d966f2c5d531a41bf5c73b2794c98768e7c6132a1fb5b3b1881ca623c3",
     "e67058be03ae1f2c0df9ac61abfa9b107582fafca3d17724371802a2887e867a"),
    # phi 0.4, not 0: at phi 0 every potential pair trades under either
    # matching rule, so endogenous scores would leave the bits unchanged
    ("endogenous", "baseline_smooth", dict(matching=MatchingMode.ENDOGENOUS, alpha=1.0, lam=1.0),
     "e455b0d17f2a37d10675f6db3797cbea012c81300b68c0f4b429ff7070e6af02",
     "e642edf89e82217cc1267821a7a8633019cfc8a41cd79da2410bb0b526b8dc99"),
    ("securitised", "baseline_perfect", dict(reserve_base=ReserveBase.SECURITISED),
     "c018c6a959739dee764406b49e7a0910883be0c5000df2972dbc8308fcb08917",
     "edd69ab5085ad7036ccb6ced39c79fc2db75ee37ac70b9dd19ee1cc9a9bbd6d1"),
    ("no_transfer_on_issue", "baseline_perfect", dict(transfer_on_issue=False),
     "2db9177fdf71c5facce8aae44ca395ef161b6265cae012c282f506f3cb494c85",
     "4ce3efde04893c99d0d4e4abb700ca79fb2dfecb26c55df25558cb3ec660832b"),
    # the bench's wide_banks scale: lenders hold many claims each, so the
    # claim order and the partial sums of reassign_claims are exercised
    ("wide_banks", "baseline_perfect", dict(B=50, T=10),
     "2abedd1d4fb7981fd3a8053f640469a0974cdbad5569b4e5486cae4a261883d3",
     "4e80e2bd946bba21e88eb9e76cf11137a5216f49bd6987a0db81106f0601f748"),
    # one pair of payment matrices drawn for the whole run
    ("fixed_payment_matrix", "baseline_perfect", dict(fixed_payment_matrix=True),
     "5773a07ad77e0b65f38d2da23344bc3757f5e2fef2708d27dbf72175229da033",
     "6d2e4273b0feb9b3584d83f8fd11c45918e9dbe9e96afc85733316e8f033075c"),
]


@pytest.mark.parametrize("preset,overrides,aggregate,per_bank",
                         [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_artifact_digests(tmp_path, preset, overrides, aggregate, per_bank):
    trace = run_scenario(get_preset(preset, seed=SEED, **overrides))
    paths = emit_trace_artifacts(trace, tmp_path)
    digests = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
               for name in ("aggregate", "per_bank")}
    assert digests == {"aggregate": aggregate, "per_bank": per_bank}


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
