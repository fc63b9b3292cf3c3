package pubtac

import "pubtac/internal/core"

// ProgressEvent reports campaign growth for one analyzed path; see
// WithProgress. Target starts at the runs the campaign is known to need,
// TAC's floor included, and grows while an unstable MBPTA convergence
// search extends its own requirement; Done never decreases.
type ProgressEvent = core.ProgressEvent

// Option configures a Session; see NewSession.
type Option func(*sessionSettings)

// sessionSettings accumulates option values before a Session is built.
type sessionSettings struct {
	cfg        core.Config
	workers    int
	workersSet bool
	scale      float64
	capSet     bool
	progress   func(ProgressEvent)
}

// WithConfig replaces the session's entire pipeline configuration (platform
// model, MBPTA and TAC parameters, campaign cap). Later options still apply
// on top; use it as an escape hatch when the dedicated options don't reach
// a knob.
func WithConfig(cfg Config) Option {
	return func(s *sessionSettings) {
		s.cfg = cfg
		s.capSet = true
	}
}

// WithModel sets the simulated platform (caches and latencies). The default
// is the paper's 4KB 2-way 32B-line IL1/DL1 with random placement and
// replacement.
func WithModel(m Model) Option {
	return func(s *sessionSettings) { s.cfg.Model = m }
}

// WithWorkers bounds the session's total simulation parallelism across all
// concurrently analyzed paths (0, the default, means GOMAXPROCS). Results
// are deterministic and independent of the worker count.
func WithWorkers(n int) Option {
	return func(s *sessionSettings) {
		s.workers = n
		s.workersSet = true
	}
}

// WithScale shrinks (or grows) every campaign proportionally: MBPTA's
// initial runs, increment and convergence ceiling are multiplied by scale.
// Scale 1.0 (the default) reproduces paper-size campaigns; 0.05 is a
// laptop-friendly setting. Analytic outputs (TAC run requirements,
// probabilities) are exact at every scale.
//
// A usable scale is finite and > 0, and small enough that 7×10^5·scale fits
// an int. Any other value (0, negative, NaN, ±Inf, 1e300) collapses every
// campaign to the minimum sizes (200 initial runs, 200 per round, 4,000 at
// most, a 6,000-run cap); the CLIs refuse such a -scale.
//
// Unless WithCampaignCap or WithConfig sets a cap explicitly, the session
// caps each path's simulated runs at the scaled equivalent of the
// evaluation's 7×10^5-run campaign (so 7×10^5 at scale 1.0); an explicit
// cap is always honored verbatim.
func WithScale(scale float64) Option {
	return func(s *sessionSettings) { s.scale = scale }
}

// WithCampaignCap bounds the number of runs actually simulated per path
// (0 = no cap). Reported requirements (RPub, RTac, R) are unaffected; only
// the measured sample is truncated.
func WithCampaignCap(n int) Option {
	return func(s *sessionSettings) {
		s.cfg.CampaignCap = n
		s.capSet = true
	}
}

// WithSeed salts every campaign root seed, giving this session campaigns
// statistically independent from (but just as reproducible as) the default
// ones. Seed 0, the default, reproduces the historical per-path seeds.
func WithSeed(seed uint64) Option {
	return func(s *sessionSettings) { s.cfg.SeedSalt = seed }
}

// WithProgress installs a campaign progress sink. Events arrive serialized
// (one call at a time) but from analysis goroutines, not the caller's;
// the callback must not block for long, or it stalls the campaigns.
// Besides campaign growth, the sink receives "warning" events (for example
// an i.i.d. admissibility failure at convergence), with the detail in
// ProgressEvent.Note.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(s *sessionSettings) { s.progress = fn }
}

// WithStreamingEstimation switches the estimation layer to the
// bounded-memory streaming summary: each path's campaign retains an exact
// top-K tail reservoir, a quantile sketch and the streaming i.i.d. battery
// instead of the full sample, so peak estimation memory is O(budget) per
// path regardless of how many runs TAC demands. budget is the memory knob K
// (reservoir size, sketch buckets, battery retention); 0 selects the
// default (8192). The pWCET tail fit is bit-identical to the full-sample
// path while the auto-fit search window (n/5 tail candidates) fits the
// reservoir; beyond that the window clamps to the reservoir, and body
// quantiles and the battery median resolve through the sketch (value error
// under 2·span/(budget-1)). Streaming estimates do not retain the sample.
func WithStreamingEstimation(budget int) Option {
	return func(s *sessionSettings) {
		s.cfg.MBPTA.Streaming = true
		s.cfg.MBPTA.StreamBudget = budget
	}
}

// WithPeers installs a shard collector: every campaign's collection is
// split into shards dispatched through sc — typically client.NewFabric over
// a set of pubtacd workers — with failed shards recomputed locally, so a
// dead or misconfigured peer degrades throughput, never results. Sharded
// results are bit-identical to local ones (run i depends only on the
// campaign root and i, and the fill is index-addressed), which is why the
// sharding knobs do not enter config fingerprints or cache keys. A nil sc
// restores purely local collection.
func WithPeers(sc ShardCollector) Option {
	return func(s *sessionSettings) { s.cfg.Sharder = sc }
}

// WithShards sets how many shards each collection window is split into when a
// shard collector is installed (0, the default, asks the collector —
// typically the peer count). More shards than peers overlaps transfer with
// compute and shrinks the cost of a shard failing over to local
// recomputation; the results are identical at any shard count.
func WithShards(n int) Option {
	return func(s *sessionSettings) { s.cfg.Shards = n }
}

// WithIIDHardFail promotes the i.i.d. admissibility warning to a hard
// failure: analyses whose sample fails the battery (runs, Ljung-Box,
// Kolmogorov-Smirnov at the configured Alpha) return an error wrapping
// ErrIIDInadmissible instead of shipping the pWCET. A WithProgress sink
// still receives the "warning" event before the analysis aborts. Off by
// default — the battery is diagnostic, and campaign runs draw independent
// seeds — but certification-style workflows can refuse inadmissible
// estimates outright.
func WithIIDHardFail(on bool) Option {
	return func(s *sessionSettings) { s.cfg.IIDHardFail = on }
}

// defaultSettings returns the paper's evaluation setup at full scale.
func defaultSettings() *sessionSettings {
	return &sessionSettings{cfg: core.DefaultConfig(), scale: 1.0}
}

// build finalizes the settings into a core configuration. The scaling
// policy itself lives in core.Config.Scaled, shared with the experiment
// generators.
func (s *sessionSettings) build() core.Config {
	cfg := s.cfg
	scaledCfg := cfg.Scaled(s.scale)
	if s.scale != 1.0 {
		// At scale 1.0 the MBPTA knobs are left exactly as configured
		// (Scaled would floor a deliberately tiny WithConfig campaign).
		cfg.MBPTA = scaledCfg.MBPTA
	}
	// An explicit cap (WithCampaignCap, WithConfig) is honored verbatim;
	// otherwise the session caps campaigns at the scaled equivalent of the
	// evaluation's 7e5-run campaign, continuously in the scale.
	if !s.capSet {
		cfg.CampaignCap = scaledCfg.CampaignCap
	}
	if s.workersSet {
		cfg.MBPTA.Workers = s.workers
	} else {
		s.workers = cfg.MBPTA.Workers
	}
	return cfg
}
