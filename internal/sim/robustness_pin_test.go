package sim

import (
	"context"
	"math"
	"testing"

	"gridvo/internal/adversary"
)

// TestRobustnessFingerprintPinned pins the robustness sweep across
// commits: both worlds' fingerprints and the bit patterns of the mean
// degradation metrics, for each attack class the CI smoke runs (with
// vosim's parameters for robustConfig's 10 GSPs: slander's attacker count
// is m/8, churn re-joins at half the leave rate) and one attack composed
// with churn. A slip in any stream derivation — the scenario, the
// adversary child, the churn schedule or the grand-coalition hand-off —
// moves a fingerprint, which a self-consistency test cannot see.
func TestRobustnessFingerprintPinned(t *testing.T) {
	churn := &adversary.ChurnSpec{LeaveRate: 0.25, JoinRate: 0.125}
	for _, tc := range []struct {
		name                  string
		attack                *adversary.Spec
		churn                 *adversary.ChurnSpec
		honest, adversarial   uint64
		meanDV, meanIn, meanD uint64
	}{
		{name: "collusion,4", attack: &adversary.Spec{Class: adversary.ClassCollusion, Size: 4},
			honest: 0xd4db4196a51a32a9, adversarial: 0x7f990cc92a6b5c19,
			meanDV: 0xc0410f1927829c40, meanIn: 0x3fe2c16c16c16c17, meanD: 0x3fce666666666666},
		{name: "sybil,4", attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 4},
			honest: 0xd4db4196a51a32a9, adversarial: 0xd01550bb40555afb,
			meanDV: 0x40566262beacb900, meanIn: 0x3fc78e38e38e38e4, meanD: 0x3fc3333333333333},
		{name: "whitewash,3", attack: &adversary.Spec{Class: adversary.ClassWhitewash, Size: 3},
			honest: 0xd4db4196a51a32a9, adversarial: 0xdb9a45795a5c03d2,
			meanDV: 0xbffa7e5b8aa45800, meanIn: 0x3fc638e38e38e38e, meanD: 0x3fc599999999999a},
		{name: "slander,0.3", attack: &adversary.Spec{Class: adversary.ClassSlander, Size: 1, Rate: 0.3},
			honest: 0xd4db4196a51a32a9, adversarial: 0x5cd4e4646c4cbd7a,
			meanDV: 0, meanIn: 0x3fbccccccccccccd, meanD: 0},
		{name: "churn,0.25", churn: churn,
			honest: 0xd4db4196a51a32a9, adversarial: 0xf15998b7007df93f,
			meanDV: 0x405736f9b68ce200, meanIn: 0, meanD: 0x3fb8000000000000},
		{name: "sybil,4+churn,0.25", attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 4}, churn: churn,
			honest: 0xd4db4196a51a32a9, adversarial: 0xaece4e56400a4bf2,
			meanDV: 0x405eb73e41784400, meanIn: 0x3fd334d34d34d34d, meanD: 0x3fc4000000000000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RobustnessSweep(context.Background(), attacked(5, tc.attack, tc.churn), nil)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]uint64{rep.HonestFingerprint, rep.AdversarialFingerprint,
				math.Float64bits(rep.MeanValueDelta), math.Float64bits(rep.MeanInfiltration), math.Float64bits(rep.MeanDisplacement)}
			want := [5]uint64{tc.honest, tc.adversarial, tc.meanDV, tc.meanIn, tc.meanD}
			if got != want {
				t.Fatalf("fingerprints honest/adversarial and mean Δv/infiltration/displacement bits\n got %#016x\nwant %#016x", got, want)
			}
		})
	}
}
