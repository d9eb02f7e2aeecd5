package train

// timeline.go holds the Config.Timeline plumbing around the step loop,
// which stamps its phase boundaries through the nil-safe obsv.Timeline
// methods: with no timeline attached the loop reads no clock inside a step,
// and recorded timing never feeds the math, so tracing cannot perturb the
// trained bits.

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/obsv"
)

// checkTimelineRank rejects a Config.Timeline that records a rank other
// than the local one: its events would be gathered under the wrong rank.
func checkTimelineRank(tl *obsv.Timeline, local int) error {
	if tl != nil && tl.Rank() != local {
		return fmt.Errorf("train: Config.Timeline records rank %d, but the local rank is %d", tl.Rank(), local)
	}
	return nil
}

// gatherTimelines ships every rank's ring to rank 0 over the same
// transport the gradients used, after the final barrier. Under
// RunDistributed each process chooses for itself whether to trace, so the
// ranks first agree, in one scalar allreduce, whether any of them did; if
// so every rank joins the gather, an untraced one with an empty timeline.
// The ring is detached first so this traffic is not recorded.
func gatherTimelines(c *comm.Comm, tl *obsv.Timeline, res *Result) error {
	c.SetTimeline(nil)
	traced := 0.0
	if tl != nil {
		traced = 1
	}
	if c.AllReduceScalar(traced) == 0 {
		return nil
	}
	// An untraced rank's empty timeline is based at the present, so it
	// cannot pull the traced ranks' wall-clock alignment back to 1970.
	rt := obsv.RankTimeline{Rank: c.Rank(), BaseUnixNs: time.Now().UnixNano()}
	if tl != nil {
		rt = tl.Snapshot()
	}
	parts := c.Gather(obsv.EncodeTimeline(rt), 0)
	if c.Rank() != 0 {
		return nil
	}
	res.Timelines = make([]obsv.RankTimeline, 0, len(parts))
	for i, p := range parts {
		rt, err := obsv.DecodeTimeline(p)
		if err != nil {
			return fmt.Errorf("train: gathered timeline from rank %d: %w", i, err)
		}
		res.Timelines = append(res.Timelines, rt)
	}
	return nil
}
