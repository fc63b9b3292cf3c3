package pubtac

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"pubtac/internal/core"
	"pubtac/internal/pub"
)

// Fingerprint is a SHA-256 content address over the inputs of an analysis.
// The pipeline is a deterministic function of (program IR, configuration,
// campaign seed), so equal fingerprints imply bit-identical results — the
// property the analysis service's result store is keyed on. Clients and
// servers derive fingerprints through the same entry points
// (Session.ConfigFingerprint, FingerprintProgram, Job.Key or JobKey, and
// AnalysisKey) and therefore agree on keys without exchanging anything but
// the hash.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is unset.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// MarshalText implements encoding.TextMarshaler (hex).
func (f Fingerprint) MarshalText() ([]byte, error) {
	return []byte(f.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (f *Fingerprint) UnmarshalText(text []byte) error {
	p, err := ParseFingerprint(string(text))
	if err != nil {
		return err
	}
	*f = p
	return nil
}

// ParseFingerprint parses the hex form produced by Fingerprint.String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	if len(s) != hex.EncodedLen(len(f)) {
		return f, fmt.Errorf("pubtac: fingerprint %q: want %d hex chars", s, hex.EncodedLen(len(f)))
	}
	if _, err := hex.Decode(f[:], []byte(s)); err != nil {
		return f, fmt.Errorf("pubtac: fingerprint %q: %v", s, err)
	}
	return f, nil
}

// ConfigFingerprint returns the fingerprint of the session's resolved
// pipeline configuration: a SHA-256 over the canonical, field-order-stable
// encoding of every result-affecting field (internal/core's
// EncodingVersion-stamped encoding). Worker counts and the progress sink are
// excluded — results are worker-count-invariant — so sessions differing only
// in parallelism or observation fingerprint identically and share cached
// results. It is core.Config.Fingerprint, the identity shard workers check
// specs against, so the two can never drift apart.
func (s *Session) ConfigFingerprint() Fingerprint {
	return Fingerprint(s.cfg.Fingerprint())
}

// FingerprintProgram fingerprints one analysis input: the program p on input
// vector in under campaign seed salt seed. The fingerprint is computed the
// way the pipeline consumes the program — PUB-transform, then execute the
// pubbed path — and hashes the resulting address trace, path signature and
// transformation report rather than the IR tree itself, so it captures the
// behavior of index expressions and semantic actions that no structural
// encoding of closures could. Programs whose pubbed path produces the same
// access sequence are, by construction, the same analysis.
//
// The transform and single execution cost microseconds to low milliseconds —
// negligible next to a campaign, which is what a matching cache entry saves.
func FingerprintProgram(p *Program, in Input, seed uint64) (Fingerprint, error) {
	pubbed, rep, err := pub.Transform(p)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("pubtac: fingerprinting %s: %w", p.Name, err)
	}
	res, err := pubbed.Exec(in)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("pubtac: fingerprinting %s(%s): %w", p.Name, in.Name, err)
	}

	h := sha256.New()
	fmt.Fprintf(h, "pubtac-program-v%d;", core.EncodingVersion)
	writeString(h, p.Name)
	writeString(h, in.Name)
	writeString(h, res.Path)
	writeReport(h, rep)
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], seed)
	h.Write(u8[:])
	// The trace: per access, the byte address and the target cache. This is
	// what TAC and every campaign replay consume.
	binary.LittleEndian.PutUint64(u8[:], uint64(len(res.Trace)))
	h.Write(u8[:])
	for _, a := range res.Trace {
		binary.LittleEndian.PutUint64(u8[:], a.Addr)
		h.Write(u8[:])
		h.Write([]byte{byte(a.Kind)})
	}
	return sumFingerprint(h), nil
}

// Key fingerprints the job under campaign seed salt seed: JobKey over
// FingerprintProgram of every input vector, in order. Combined with
// Session.ConfigFingerprint via AnalysisKey it addresses the job's full
// result content.
func (j Job) Key(seed uint64) (Fingerprint, error) {
	if j.Program == nil {
		return Fingerprint{}, fmt.Errorf("pubtac: job key: nil program")
	}
	if len(j.Inputs) == 0 {
		return Fingerprint{}, fmt.Errorf("pubtac: job key: %s has no inputs", j.Program.Name)
	}
	fps := make([]Fingerprint, len(j.Inputs))
	for i, in := range j.Inputs {
		fp, err := FingerprintProgram(j.Program, in, seed)
		if err != nil {
			return Fingerprint{}, err
		}
		fps[i] = fp
	}
	return JobKey(fps...), nil
}

// JobKey combines the program fingerprints of a job's input vectors, in
// input order, into the job's key. It is Job.Key's combiner, exposed for a
// caller that already holds the FingerprintProgram values: the pubtacd
// daemon computes them once per registry input and derives every request's
// key from them.
func JobKey(programs ...Fingerprint) Fingerprint {
	h := sha256.New()
	fmt.Fprintf(h, "pubtac-job-v%d;", core.EncodingVersion)
	for _, fp := range programs {
		h.Write(fp[:])
	}
	return sumFingerprint(h)
}

// AnalysisKey derives the content-addressed cache key of a batch analysis:
// the result schema version, the session's configuration fingerprint, and
// the job keys in submission order. Two submissions with equal AnalysisKeys
// receive byte-identical BatchResult JSON; the pubtacd result store is keyed
// on exactly this value, and remote clients may precompute it to probe the
// cache without shipping a request body.
func AnalysisKey(cfg Fingerprint, jobs ...Fingerprint) Fingerprint {
	h := sha256.New()
	fmt.Fprintf(h, "pubtac-analysis-v%d-schema%d;", core.EncodingVersion, ResultSchemaVersion)
	h.Write(cfg[:])
	for _, j := range jobs {
		h.Write(j[:])
	}
	return sumFingerprint(h)
}

func sumFingerprint(h hash.Hash) Fingerprint {
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// writeString writes a length-prefixed string (unambiguous concatenation).
func writeString(h hash.Hash, s string) {
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], uint64(len(s)))
	h.Write(u8[:])
	h.Write([]byte(s))
}

// writeReport hashes the PUB report fields that surface in a Result.
func writeReport(h hash.Hash, rep pub.Report) {
	var u8 [8]byte
	for _, v := range []int{
		rep.Constructs, rep.InsertedAccesses, rep.InsertedInstrs,
		rep.InsertedSubtrees, rep.OrigCodeBytes, rep.PubbedCodeBytes,
	} {
		binary.LittleEndian.PutUint64(u8[:], uint64(v))
		h.Write(u8[:])
	}
}
