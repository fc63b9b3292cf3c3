package serve

import (
	"fmt"
	"sync"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/mbpta"
)

// registry is the daemon's table of the benchmark registry, built once by
// New: per benchmark name its instance, and per input vector its
// FingerprintProgram under the daemon's seed salt. The registry bounds it
// (11 benchmarks, 33 inputs), so the table is complete from the start and
// never written after New. A request resolves through it and derives its
// key from the stored fingerprints with no lock and no IR build, PUB, Exec
// or trace hash; only a miss builds pipeline jobs, from the table's shared
// programs. Sharing is safe: every registry program is linked, and PUB and
// Exec only read a linked program.
type registry map[string]*benchEntry

// benchEntry is one benchmark of the table.
type benchEntry struct {
	bench  *pubtac.Bench
	inputs []*inputEntry // one per bench.Inputs, in order
}

// inputEntry is one (benchmark, input vector) pair of the table.
type inputEntry struct {
	in pubtac.Input
	fp pubtac.Fingerprint // FingerprintProgram under the daemon's seed salt

	// The shard worker's compiled campaigns on this input, of the pubbed
	// and of the original program. Each is built on first use, so repeated
	// shard rounds of one campaign pay PUB, Exec and trace compilation once.
	pub, orig lazyCampaign
}

type lazyCampaign struct {
	once sync.Once
	camp *mbpta.Campaign
	err  error
}

// newRegistry builds the table, fingerprinting every registry input under
// campaign seed salt seed.
func newRegistry(seed uint64) (registry, error) {
	t := make(registry)
	for _, b := range pubtac.Benchmarks() {
		be := &benchEntry{bench: b, inputs: make([]*inputEntry, len(b.Inputs))}
		for i, in := range b.Inputs {
			fp, err := pubtac.FingerprintProgram(b.Program, in, seed)
			if err != nil {
				return nil, err
			}
			be.inputs[i] = &inputEntry{in: in, fp: fp}
		}
		t[b.Name] = be
	}
	return t, nil
}

// tableJob is one job of a request resolved through the table: a benchmark
// and the entries of the inputs it names, in request order.
type tableJob struct {
	bench  *benchEntry
	inputs []*inputEntry
}

// lookup returns the table's entry for a benchmark name. An unknown name
// gets the registry's own error, which lists the valid names.
func (t registry) lookup(name string) (*benchEntry, error) {
	if be, ok := t[name]; ok {
		return be, nil
	}
	_, err := pubtac.Benchmark(name)
	return nil, err
}

// input returns the entry of the named input vector, or the registry's error.
func (be *benchEntry) input(name string) (*inputEntry, error) {
	for _, e := range be.inputs {
		if e.in.Name == name {
			return e, nil
		}
	}
	_, err := be.bench.Input(name)
	return nil, err
}

// resolve turns a wire request into table jobs. The two request forms
// normalize to one job list.
func (t registry) resolve(req client.AnalyzeRequest) ([]tableJob, error) {
	specs := req.Jobs
	if req.Bench != "" {
		if len(specs) > 0 {
			return nil, fmt.Errorf("request mixes the single-benchmark form (bench) with the batch form (jobs)")
		}
		spec := client.JobSpec{Bench: req.Bench, Multipath: req.Multipath}
		if req.Input != "" {
			if req.Multipath {
				return nil, fmt.Errorf("input and multipath are mutually exclusive")
			}
			spec.Inputs = []string{req.Input}
		}
		specs = []client.JobSpec{spec}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty request: set bench or jobs")
	}
	jobs := make([]tableJob, len(specs))
	for i, spec := range specs {
		be, err := t.lookup(spec.Bench)
		if err != nil {
			return nil, err
		}
		j := tableJob{bench: be}
		switch {
		case spec.Multipath:
			j.inputs = be.inputs
		case len(spec.Inputs) > 0:
			j.inputs = make([]*inputEntry, len(spec.Inputs))
			for k, name := range spec.Inputs {
				if j.inputs[k], err = be.input(name); err != nil {
					return nil, err
				}
			}
		default:
			j.inputs = be.inputs[:1]
		}
		jobs[i] = j
	}
	return jobs, nil
}

// pipelineJobs builds the analysis jobs of a miss, on the table's programs.
func pipelineJobs(jobs []tableJob) []pubtac.Job {
	out := make([]pubtac.Job, len(jobs))
	for i, j := range jobs {
		ins := make([]pubtac.Input, len(j.inputs))
		for k, e := range j.inputs {
			ins[k] = e.in
		}
		out[i] = pubtac.Job{Program: j.bench.bench.Program, Inputs: ins}
	}
	return out
}

// campaign returns the compiled campaign of the input's pubbed or original
// program under cfg, rooted at its CampaignRoot, building it on first use.
func (e *inputEntry) campaign(b *pubtac.Bench, original bool, cfg pubtac.Config) (*mbpta.Campaign, error) {
	lc := &e.pub
	if original {
		lc = &e.orig
	}
	lc.once.Do(func() {
		p := b.Program
		if !original {
			var err error
			if p, _, err = pubtac.Transform(p); err != nil {
				lc.err = fmt.Errorf("PUB on %s: %w", b.Name, err)
				return
			}
		}
		res, err := p.Exec(e.in)
		if err != nil {
			lc.err = fmt.Errorf("executing %s(%s): %w", b.Name, e.in.Name, err)
			return
		}
		lc.camp = mbpta.NewCampaign(res.Trace, cfg.Model, cfg.CampaignRoot(b.Name, e.in.Name))
	})
	return lc.camp, lc.err
}
