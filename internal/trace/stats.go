package trace

import "fmt"

// Stats summarises a trace for reporting and for the Fig.-1 style analysis.
type Stats struct {
	Records   int
	Files     int
	Users     int
	Processes int
	Hosts     int
	Devices   int
	Groups    int
	OpCounts  [numOps]uint64
}

// Summarize scans the trace once and collects the Stats.
func Summarize(t *Trace) Stats {
	var s Stats
	s.Records = len(t.Records)
	s.Files = t.FileCount
	uids := map[uint32]struct{}{}
	pids := map[uint32]struct{}{}
	hosts := map[uint32]struct{}{}
	devs := map[uint32]struct{}{}
	groups := map[int32]struct{}{}
	for i := range t.Records {
		r := &t.Records[i]
		uids[r.UID] = struct{}{}
		pids[r.PID] = struct{}{}
		hosts[r.Host] = struct{}{}
		devs[r.Dev] = struct{}{}
		if r.Group >= 0 {
			groups[r.Group] = struct{}{}
		}
		if int(r.Op) < len(s.OpCounts) {
			s.OpCounts[r.Op]++
		}
	}
	s.Users = len(uids)
	s.Processes = len(pids)
	s.Hosts = len(hosts)
	s.Devices = len(devs)
	s.Groups = len(groups)
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("records=%d files=%d users=%d procs=%d hosts=%d groups=%d",
		s.Records, s.Files, s.Users, s.Processes, s.Hosts, s.Groups)
}

// AttrKey selects the attribute-conditioning used by SuccessorProbability:
// successor statistics are tracked separately per distinct key value, which is
// how the paper "filters out unrelated access sequences" (§2.2).
type AttrKey func(*Record) uint64

// Conditioning keys for the Fig. 1 experiment.
var (
	// KeyNone puts every access in a single stream (no filtering).
	KeyNone AttrKey = func(*Record) uint64 { return 0 }
	// KeyUID conditions on the user id.
	KeyUID AttrKey = func(r *Record) uint64 { return uint64(r.UID) }
	// KeyPID conditions on the process id.
	KeyPID AttrKey = func(r *Record) uint64 { return uint64(r.PID) }
	// KeyHost conditions on the host id.
	KeyHost AttrKey = func(r *Record) uint64 { return uint64(r.Host) }
	// KeyUIDPID conditions on the (user, process) pair.
	KeyUIDPID AttrKey = func(r *Record) uint64 { return uint64(r.UID)<<32 | uint64(r.PID) }
)

// KeyDir conditions on the file's directory (hashed); usable only on traces
// with paths.
func KeyDir(r *Record) uint64 {
	return hashString(r.Dir())
}

func hashString(s string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SuccessorProbability computes the paper's §2.2 statistic: split the trace
// into per-key sub-sequences, record each file's immediate successor within
// its sub-sequence, and return the mean probability that a file is followed
// by its most frequent successor. A higher value means the conditioning
// attribute exposes stronger sequential regularity.
func SuccessorProbability(t *Trace, key AttrKey) float64 {
	type edgeCount map[FileID]int
	last := map[uint64]FileID{}    // key -> previous file in that stream
	succ := map[FileID]edgeCount{} // file -> successor -> count
	totals := map[FileID]int{}     // file -> total successor observations
	for i := range t.Records {
		r := &t.Records[i]
		k := key(r)
		if prev, ok := last[k]; ok && prev != r.File {
			ec := succ[prev]
			if ec == nil {
				ec = edgeCount{}
				succ[prev] = ec
			}
			ec[r.File]++
			totals[prev]++
		}
		last[k] = r.File
	}
	if len(succ) == 0 {
		return 0
	}
	var sum float64
	var n int
	for f, ec := range succ {
		best := 0
		for _, c := range ec {
			if c > best {
				best = c
			}
		}
		tot := totals[f]
		if tot == 0 {
			continue
		}
		sum += float64(best) / float64(tot)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
