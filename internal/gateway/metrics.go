package gateway

// metrics.go maps the gateway's existing counters — its own routing
// counters, the admission gate, the per-tenant accounting, and the
// backend pool — onto an obsv.MetricsRegistry as callback families,
// giving cosmoflow-gateway the same GET /metrics scrape surface as the
// backends it fronts. Everything reads the stats
// the /stats handler already snapshots; nothing new on the hot path.

import (
	"time"

	"repro/internal/obsv"
	"repro/internal/serve/api"
)

// MetricsRegistry returns the gateway's scrape registry, built on first
// use (the same instance backs GET /metrics and any -debug-addr mount).
func (g *Gateway) MetricsRegistry() *obsv.MetricsRegistry {
	g.metricsOnce.Do(func() { g.metrics = g.newMetricsRegistry() })
	return g.metrics
}

func (g *Gateway) newMetricsRegistry() *obsv.MetricsRegistry {
	r := obsv.NewMetricsRegistry()

	r.GaugeFunc("cosmoflow_gateway_uptime_seconds", "seconds since the gateway started", func() []obsv.Sample {
		return []obsv.Sample{{Value: time.Since(g.start).Seconds()}}
	})

	one := func(read func() float64) func() []obsv.Sample {
		return func() []obsv.Sample { return []obsv.Sample{{Value: read()}} }
	}
	r.CounterFunc("cosmoflow_gateway_requests_total", "routed requests",
		one(func() float64 { return float64(g.ctr.requests.Load()) }))
	r.CounterFunc("cosmoflow_gateway_errors_total", "requests that exhausted retries",
		one(func() float64 { return float64(g.ctr.errors.Load()) }))
	r.CounterFunc("cosmoflow_gateway_retries_total", "retry attempts",
		one(func() float64 { return float64(g.ctr.retries.Load()) }))
	r.CounterFunc("cosmoflow_gateway_scattered_total", "scatter-gather requests",
		one(func() float64 { return float64(g.ctr.scattered.Load()) }))

	// Admission gate: point-in-time occupancy plus cumulative decisions.
	r.GaugeFunc("cosmoflow_gateway_admission_inflight", "requests holding an admission slot", func() []obsv.Sample {
		st := g.adm.stats()
		return []obsv.Sample{{Value: float64(st.Inflight)}}
	})
	r.GaugeFunc("cosmoflow_gateway_admission_queued", "requests parked in the class queues", func() []obsv.Sample {
		st := g.adm.stats()
		return []obsv.Sample{{Value: float64(st.Queued)}}
	})
	r.GaugeFunc("cosmoflow_gateway_admission_capacity", "concurrent-admission limit", func() []obsv.Sample {
		st := g.adm.stats()
		return []obsv.Sample{{Value: float64(st.Capacity)}}
	})
	r.CounterFunc("cosmoflow_gateway_admitted_total", "requests admitted through the gate", func() []obsv.Sample {
		st := g.adm.stats()
		return []obsv.Sample{{Value: float64(st.Admitted)}}
	})
	r.CounterFunc("cosmoflow_gateway_shed_total", "requests shed by the gate", func() []obsv.Sample {
		st := g.adm.stats()
		return []obsv.Sample{{Value: float64(st.Shed)}}
	})

	// Per-tenant accounting: one series per configured tenant, labeled with
	// its admission class.
	tenantSamples := func(read func(st api.TenantStats) float64) func() []obsv.Sample {
		return func() []obsv.Sample {
			stats := g.tenants.stats()
			out := make([]obsv.Sample, 0, len(stats))
			for _, st := range stats {
				out = append(out, obsv.Sample{
					Labels: []obsv.Label{obsv.L("tenant", st.Name), obsv.L("class", st.Class)},
					Value:  read(st),
				})
			}
			return out
		}
	}
	r.CounterFunc("cosmoflow_gateway_tenant_admitted_total", "admitted requests per tenant",
		tenantSamples(func(st api.TenantStats) float64 { return float64(st.Admitted) }))
	r.CounterFunc("cosmoflow_gateway_tenant_rate_limited_total", "token-bucket sheds per tenant",
		tenantSamples(func(st api.TenantStats) float64 { return float64(st.RateLimited) }))
	r.CounterFunc("cosmoflow_gateway_tenant_shed_total", "queue-pressure sheds per tenant",
		tenantSamples(func(st api.TenantStats) float64 { return float64(st.Shed) }))

	// Backend pool: health and per-backend routing counters, one series
	// per pool member.
	backendSamples := func(read func(st api.BackendStatus) float64) func() []obsv.Sample {
		return func() []obsv.Sample {
			backends := g.pool.Backends()
			out := make([]obsv.Sample, 0, len(backends))
			for _, b := range backends {
				st := b.status()
				out = append(out, obsv.Sample{
					Labels: []obsv.Label{obsv.L("backend", st.Backend)},
					Value:  read(st),
				})
			}
			return out
		}
	}
	r.GaugeFunc("cosmoflow_gateway_backend_up", "1 when the backend probes ready",
		func() []obsv.Sample {
			backends := g.pool.Backends()
			out := make([]obsv.Sample, 0, len(backends))
			for _, b := range backends {
				st := b.status()
				v := 0.0
				if st.State == "ready" {
					v = 1
				}
				out = append(out, obsv.Sample{
					Labels: []obsv.Label{obsv.L("backend", st.Backend), obsv.L("state", st.State)},
					Value:  v,
				})
			}
			return out
		})
	r.GaugeFunc("cosmoflow_gateway_backend_outstanding", "gateway requests in flight on the backend",
		backendSamples(func(st api.BackendStatus) float64 { return float64(st.Outstanding) }))
	r.CounterFunc("cosmoflow_gateway_backend_requests_total", "gateway requests routed to the backend",
		backendSamples(func(st api.BackendStatus) float64 { return float64(st.Requests) }))
	r.CounterFunc("cosmoflow_gateway_backend_errors_total", "transport and 5xx failures per backend",
		backendSamples(func(st api.BackendStatus) float64 { return float64(st.Errors) }))

	// Per-backend upstream spans when the gateway traces.
	if g.upRec != nil {
		obsv.RegisterRecorder(r, "cosmoflow_gateway_upstream", "upstream time per backend", g.upRec)
	}

	return r
}
