package main

import (
	"testing"
	"time"
)

// fixedSpans is one step: step[0,100] ⊃ fwd[10,40] ⊃ {conv1[10,25], conv2[25,38]}, opt[50,90].
func fixedSpans(op int) []span {
	ms := int64(time.Millisecond)
	return []span{
		{Name: "train.step", Start: 0, End: 100 * ms, Parent: -1, Op: op},
		{Name: "nn.forward", Start: 10 * ms, End: 40 * ms, Parent: 0, Op: op},
		{Name: "nn.conv_fwd/conv1", Start: 10 * ms, End: 25 * ms, Parent: 1, Op: op},
		{Name: "nn.conv_fwd/conv2", Start: 25 * ms, End: 38 * ms, Parent: 1, Op: op},
		{Name: "optim.step", Start: 50 * ms, End: 90 * ms, Parent: 0, Op: op},
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	self := selfTimes(fixedSpans(0))
	want := []int64{30, 2, 15, 13, 40} // ms: step 100−30−40, forward 30−15−13, leaves whole
	for i, w := range want {
		if got := self[i] / int64(time.Millisecond); got != w {
			t.Errorf("self[%d] = %d ms, want %d", i, got, w)
		}
	}
}

func TestPerOpSumsAFamilyAndSkipsWarmup(t *testing.T) {
	spans := mergeSpans(
		&spanRec{spans: fixedSpans(-1)}, // warm-up op
		&spanRec{spans: fixedSpans(0)},
		&spanRec{spans: fixedSpans(1)},
	)
	if p := spans[6].Parent; p != 5 {
		t.Fatalf("merged parent = %d, want 5 (re-based onto the merged list)", p)
	}
	conv := perOpMs(spans, "nn.conv_fwd", false)
	if len(conv) != 2 || conv[0] != 28 || conv[1] != 28 {
		t.Errorf("conv_fwd per op = %v, want [28 28]", conv)
	}
	if whole := perOpMs(spans, "train.step", false); whole[0] != 100 {
		t.Errorf("step whole = %v", whole)
	}
	if self := perOpMs(spans, "train.step", true); self[0] != 30 {
		t.Errorf("step self = %v, want 30", self)
	}
	if opt := eachMs(spans, "optim.step"); len(opt) != 2 || opt[0] != 40 {
		t.Errorf("optim.step spans = %v, want two of 40 (the warm-up one left out)", opt)
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var none *spanRec
	none.end(none.begin("x", 0)) // must not panic

	r := newSpanRec(time.Now())
	outer := r.begin("outer", 7)
	inner := r.begin("inner", 7)
	r.end(inner)
	r.end(outer)
	sib := r.begin("sibling", 8)
	r.end(sib)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 || r.spans[sib].Parent != -1 {
		t.Errorf("parents = %d %d %d", r.spans[outer].Parent, r.spans[inner].Parent, r.spans[sib].Parent)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
