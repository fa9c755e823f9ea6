"""Golden digests: exact traces of a fixed matrix of runs.

Invariant tests and ensemble statistics let a refactor shift results
unnoticed; these SHA-256 digests of the per-bank and aggregate CSVs at the
acceptance master seed do not.  A change that alters the bits on purpose
re-blesses the digests here and says why in CHANGES.md.
"""

import hashlib

import pytest

from minibank import MatchingMode, ReserveBase, emit_trace_artifacts, get_preset, run_scenario

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
]


@pytest.mark.parametrize("preset,overrides,aggregate,per_bank",
                         [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_artifact_digests(tmp_path, preset, overrides, aggregate, per_bank):
    trace = run_scenario(get_preset(preset, seed=SEED, **overrides))
    paths = emit_trace_artifacts(trace, tmp_path)
    digests = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
               for name in ("aggregate", "per_bank")}
    assert digests == {"aggregate": aggregate, "per_bank": per_bank}
