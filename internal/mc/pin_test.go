package mc

import (
	"testing"

	"stordep/internal/casestudy"
)

// pinnedDigests are the campaign digests of every case-study design at
// seed 21 and 60 trials, with operator faults off and on. They are the
// oracle for changes to trial code: a replay or measurement change that
// alters any observation of any trial changes a digest.
var pinnedDigests = []struct {
	design  string
	off, on uint64
}{
	{"Baseline", 0xfeae3ed3b7fdd59e, 0xc39db9783bff8bc1},
	{"Weekly vault", 0xda694bcf2c30d433, 0x81ed65090a5fd059},
	{"Weekly vault, F+I", 0x3a289fdbf4d56fba, 0xf5180945e2935606},
	{"Weekly vault, daily F", 0xddceac7045728e3a, 0x3f0b43cac24a0bbf},
	{"Weekly vault, daily F, snapshot", 0x53dab659862bfa55, 0xa47f0f228ba57960},
	{"AsyncB mirror, 1 link(s)", 0xd12519ff981d5e29, 0x120ee9d3fa4ef237},
	{"AsyncB mirror, 10 link(s)", 0x2b90777709221e6c, 0x945e0bca42c8d26e},
}

// pinnedOp is the operator-fault setting of the "on" digests.
var pinnedOp = OpRates{WrongRecovery: 4, SilentNonWrite: 4, CommonOutage: 2}

func TestPinnedDigests(t *testing.T) {
	designs := casestudy.WhatIfDesigns()
	if len(designs) != len(pinnedDigests) {
		t.Fatalf("%d case-study designs, %d pinned", len(designs), len(pinnedDigests))
	}
	for i, d := range designs {
		pin := pinnedDigests[i]
		if d.Name != pin.design {
			t.Fatalf("design %d is %q, pinned %q", i, d.Name, pin.design)
		}
		for _, tc := range []struct {
			op   OpRates
			want uint64
		}{{OpRates{}, pin.off}, {pinnedOp, pin.on}} {
			rep, err := (&Campaign{Design: d, Seed: 21, Trials: 60, Op: tc.op}).Run()
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if rep.Digest != tc.want {
				t.Errorf("%s, operator faults %+v: digest %#x, pinned %#x", d.Name, tc.op, rep.Digest, tc.want)
			}
		}
	}
}
