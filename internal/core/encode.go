package core

import (
	"math"
	"strconv"
)

// EncodingVersion is the version of the canonical Config encoding below.
// The encoding is hashed into every cache key the service layer derives
// (pubtac.Fingerprint), so two builds agree on a key exactly when they agree
// on this version and on the byte sequence AppendCanonical produces. Any
// change to the set of encoded fields, their order, or their formatting MUST
// bump this constant — TestCanonicalEncodingFieldsPinned pins the field
// lists of every encoded struct so an added field cannot slip through
// silently.
const EncodingVersion = 2

// AppendCanonical appends a canonical, field-order-stable encoding of every
// result-affecting configuration field to b and returns the extended slice.
// Two Configs encode identically iff any analysis run under them produces
// bit-identical results, with two deliberate exclusions:
//
//   - worker counts (MBPTA.Workers, TAC.Workers): results are
//     worker-count-invariant by construction (the pool is index-addressed),
//     so sessions differing only in parallelism share cache entries;
//   - Progress: observation only, never reaches a result;
//   - Sharder and Shards: distributed collection is shard-count- and
//     peer-invariant for the same index-addressed reason (failed shards
//     fall back to bit-identical local recomputation), so a sharded
//     coordinator, its workers and a local session all share cache keys —
//     which is also what lets a worker verify a ShardSpec against its own
//     fingerprint.
//
// The streaming budget is encoded as mbpta.Config.EffectiveStreamBudget
// resolves it, not as given: budgets that run identically (0, -1 and the
// default; any two below the floor; any budget without streaming) share
// keys.
//
// IIDHardFail is included even though it never changes result values — it
// changes whether a result exists at all (an inadmissible battery becomes an
// error), so a hard-fail session must not be served a result cached by a
// permissive one.
//
// Fields are written as name '=' value ';' with fixed formats: integers in
// decimal, booleans as 0/1, and floats as the hex of their IEEE-754 bits
// (bit-exact, locale-free). Nested structs contribute a name prefix.
func (c Config) AppendCanonical(b []byte) []byte {
	b = append(b, "core/v"...)
	b = strconv.AppendInt(b, EncodingVersion, 10)
	b = append(b, ';')

	// proc.Model: both cache geometries + policies, then latencies.
	b = appendCacheConfig(b, "model.il1", c.Model.IL1.Sets, c.Model.IL1.Ways,
		c.Model.IL1.LineBytes, int(c.Model.IL1.Placement), int(c.Model.IL1.Replacement))
	b = appendCacheConfig(b, "model.dl1", c.Model.DL1.Sets, c.Model.DL1.Ways,
		c.Model.DL1.LineBytes, int(c.Model.DL1.Placement), int(c.Model.DL1.Replacement))
	b = appendUint(b, "model.lat.issue", c.Model.Lat.Issue)
	b = appendUint(b, "model.lat.hit", c.Model.Lat.Hit)
	b = appendUint(b, "model.lat.miss", c.Model.Lat.Miss)
	b = appendUint(b, "model.lat.missjitter", c.Model.Lat.MissJitter)

	// mbpta.Config (Workers excluded; see doc comment).
	b = appendInt(b, "mbpta.initialruns", c.MBPTA.InitialRuns)
	b = appendInt(b, "mbpta.increment", c.MBPTA.Increment)
	b = appendInt(b, "mbpta.maxruns", c.MBPTA.MaxRuns)
	b = appendInt(b, "mbpta.tailcount", c.MBPTA.TailCount)
	b = appendFloat(b, "mbpta.stabilityeps", c.MBPTA.StabilityEps)
	b = appendFloat(b, "mbpta.stabilityprob", c.MBPTA.StabilityProb)
	b = appendInt(b, "mbpta.stablerounds", c.MBPTA.StableRounds)
	b = appendFloat(b, "mbpta.alpha", c.MBPTA.Alpha)
	b = appendBool(b, "mbpta.streaming", c.MBPTA.Streaming)
	b = appendInt(b, "mbpta.streambudget", c.MBPTA.EffectiveStreamBudget())

	// tac.Config (Workers excluded).
	b = appendFloat(b, "tac.missprob", c.TAC.MissProb)
	b = appendFloat(b, "tac.minimpactrel", c.TAC.MinImpactRel)
	b = appendFloat(b, "tac.impacttol", c.TAC.ImpactTol)
	b = appendInt(b, "tac.hotlines", c.TAC.HotLines)
	b = appendInt(b, "tac.maxextraways", c.TAC.MaxExtraWays)
	b = appendFloat(b, "tac.probfloor", c.TAC.ProbFloor)
	b = appendInt(b, "tac.baselineseeds", c.TAC.BaselineSeeds)
	b = appendInt(b, "tac.pinseeds", c.TAC.PinSeeds)
	b = appendUint(b, "tac.seed", c.TAC.Seed)

	// Top-level knobs (Progress excluded).
	b = appendInt(b, "campaigncap", c.CampaignCap)
	b = appendUint(b, "seedsalt", c.SeedSalt)
	b = appendBool(b, "iidhardfail", c.IIDHardFail)
	return b
}

func appendCacheConfig(b []byte, prefix string, sets, ways, lineBytes, placement, replacement int) []byte {
	b = appendInt(b, prefix+".sets", sets)
	b = appendInt(b, prefix+".ways", ways)
	b = appendInt(b, prefix+".linebytes", lineBytes)
	b = appendInt(b, prefix+".placement", placement)
	b = appendInt(b, prefix+".replacement", replacement)
	return b
}

func appendInt(b []byte, name string, v int) []byte {
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ';')
}

func appendUint(b []byte, name string, v uint64) []byte {
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendUint(b, v, 10)
	return append(b, ';')
}

func appendBool(b []byte, name string, v bool) []byte {
	b = append(b, name...)
	b = append(b, '=')
	if v {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	return append(b, ';')
}

func appendFloat(b []byte, name string, v float64) []byte {
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendUint(b, math.Float64bits(v), 16)
	return append(b, ';')
}
