package peer

import (
	"context"
	"net/http"
	"time"
)

// Prober tuning: ejection after 2 consecutive failed probes keeps one
// dropped packet from reshuffling ownership; readmission after 2
// consecutive successes keeps a flapping peer from bouncing in and out of
// the ring every interval.
const (
	DefaultProbeInterval = time.Second
	DefaultEjectAfter    = 2
	DefaultReadmitAfter  = 2
)

// probeState is one remote peer's consecutive probe-outcome counters.
type probeState struct {
	consecFail int
	consecOK   int
}

// ProbeOnce sweeps every remote peer's /v1/peer/health once, synchronously,
// applying the eject/readmit hysteresis. It is the unit of the background
// prober and the deterministic hook the chaos tests drive directly.
func (c *Client) ProbeOnce(ctx context.Context) {
	for _, p := range c.remotes {
		healthy := c.probeHealth(ctx, p)
		c.probeMu.Lock()
		st := c.probeState[p]
		if healthy {
			st.consecOK++
			st.consecFail = 0
			if st.consecOK >= DefaultReadmitAfter && c.ring.Readmit(p) {
				c.logf("peer: %s healthy again, readmitted to the ring", p)
			}
		} else {
			st.consecFail++
			st.consecOK = 0
			if st.consecFail >= DefaultEjectAfter && c.ring.Eject(p) {
				c.logf("peer: %s unhealthy (%d consecutive probe failures), ejected from the ring", p, st.consecFail)
			}
		}
		c.probeMu.Unlock()
	}
}

// probeHealth performs one deadline-boxed health check. Any transport
// error or non-200 status is unhealthy.
func (c *Client) probeHealth(ctx context.Context, peer string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peerBaseURL(peer)+"/v1/peer/health", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// RunProber probes every remote peer every DefaultProbeInterval until ctx
// is done. Run it on its own goroutine at serving startup; a replica with
// no remote peers returns immediately.
func (c *Client) RunProber(ctx context.Context) {
	if len(c.remotes) == 0 {
		return
	}
	ticker := time.NewTicker(DefaultProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.ProbeOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}
