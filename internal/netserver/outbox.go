package netserver

// The leaf outbox is the durable half of exactly-once delivery: a closed
// round's exported tallies are wrapped in an LME1 envelope and spooled to
// disk BEFORE the first ship attempt, so a leaf crash anywhere between
// round close and ack loses nothing — boot replays every unshipped
// envelope in sequence order, and the root's ledger absorbs whatever was
// actually delivered before the crash as duplicates.
//
// A restarted leaf must never reuse a sequence number the root has
// already applied: the root would drop the new round as a duplicate. The
// envelope files themselves keep that floor, with no counter file. Each
// spool is one durable.WriteFile (file fsync, rename, directory fsync),
// and the newest envelope on disk is the witness of the highest assigned
// number: on ack it is renamed to env-%016x.acked instead of deleted, and
// an acked file is deleted only once a newer envelope is durable. Boot
// takes the floor from the highest .lme1 or .acked file and replays only
// the .lme1 ones. A lost .acked rename costs one duplicate ship, which
// the root acks. So a round close costs one file fsync and one directory
// fsync, and the floor survives a power loss, not only a process kill.
//
// The newest envelope also bounds the leaf's rounds: its round is closed
// and its reports are owed to the root (or already with it). A leaf that
// restores its stream from a snapshot taken before that round closed
// would otherwise close the same reports again, so boot drops such a
// restored round (server.Stream.ResumeAfter).

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/persist"
)

const (
	// A spooled envelope is env-%016x.lme1; an acked witness of the
	// sequence floor is env-%016x.acked.
	outboxEnvSuffix   = ".lme1"
	outboxAckedSuffix = ".acked"
	outboxEnvPrefix   = "env-"
	// outboxLegacySeqFile is the sequence counter file older releases
	// wrote before every envelope. Boot still counts it toward the floor
	// (an outbox whose envelopes were all acked holds nothing else), and
	// the first durable envelope retires it.
	outboxLegacySeqFile = "SEQ"
)

// outboxItem is one unshipped envelope.
type outboxItem struct {
	seq   uint64
	round int
	env   []byte // complete LME1 bytes, shipped verbatim
}

// outbox spools unshipped merge envelopes. With a directory it is
// durable; without one it degrades to in-memory spooling — retries
// survive, a process crash does not, and the boot replay has nothing to
// read.
type outbox struct {
	fs   durable.FS
	dir  string // "" = memory mode
	leaf string

	mu      sync.Mutex
	nextSeq uint64 // last assigned sequence number
	// witness is the highest sequence number whose envelope file is
	// durable (from boot, or a completed spool). Acking it, or a newer
	// envelope whose spool failed, renames the file to .acked; acking
	// anything older deletes it.
	witness uint64
	// retired lists the files (.acked witnesses, the legacy SEQ file)
	// that the next durable envelope makes redundant.
	retired []string
	pending []outboxItem
	// lastRound is the leaf round of the highest-numbered envelope on disk
	// at boot, spooled or acked; -1 when there was none.
	lastRound int
}

// openOutbox opens (or initializes) the outbox for leaf in dir, replaying
// any spooled envelopes left by a previous process. An unreadable spool
// is a hard error: silently skipping an envelope would lose a round.
func openOutbox(fsys durable.FS, dir, leaf string) (*outbox, error) {
	ob := &outbox{fs: fsys, dir: dir, leaf: leaf, lastRound: -1}
	if dir == "" {
		return ob, nil
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("netserver: outbox dir: %w", err)
	}
	if err := durable.RemoveTemps(fsys, dir); err != nil {
		return nil, fmt.Errorf("netserver: outbox temp files: %w", err)
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, fmt.Errorf("netserver: outbox dir: %w", err)
	}
	var lastSeq uint64
	for _, name := range names {
		var seq uint64
		switch {
		case name == outboxLegacySeqFile:
			raw, err := fsys.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("netserver: outbox SEQ file: %w", err)
			}
			if seq, err = strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64); err != nil {
				return nil, fmt.Errorf("netserver: outbox SEQ file: %w", err)
			}
			ob.retired = append(ob.retired, name)
		case isEnvFile(name, outboxAckedSuffix), isEnvFile(name, outboxEnvSuffix):
			env, err := fsys.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("netserver: outbox replay %s: %w", name, err)
			}
			h, err := persist.ParseEnvelopeHeader(env)
			if err != nil {
				return nil, fmt.Errorf("netserver: outbox replay %s: %w", name, err)
			}
			if string(h.Leaf) != leaf {
				return nil, fmt.Errorf("netserver: outbox replay %s: envelope belongs to leaf %q, this daemon is %q",
					name, h.Leaf, leaf)
			}
			seq = h.Seq
			if seq >= lastSeq {
				lastSeq, ob.lastRound = seq, h.Round
			}
			if strings.HasSuffix(name, outboxAckedSuffix) {
				ob.retired = append(ob.retired, name)
			} else {
				ob.pending = append(ob.pending, outboxItem{seq: seq, round: h.Round, env: env})
			}
		default:
			continue // foreign files
		}
		ob.nextSeq = max(ob.nextSeq, seq)
	}
	sort.Slice(ob.pending, func(a, b int) bool { return ob.pending[a].seq < ob.pending[b].seq })
	// What this process found may be visible without being durable (a
	// process kill keeps unsynced renames): make it durable before any
	// ack can delete what it supersedes.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("netserver: outbox dir: %w", err)
	}
	ob.witness = ob.nextSeq
	return ob, nil
}

func isEnvFile(name, suffix string) bool {
	return strings.HasPrefix(name, outboxEnvPrefix) && strings.HasSuffix(name, suffix)
}

// add assigns the next sequence number, wraps image (persist.Append
// bytes) in an envelope and spools it. The in-memory entry is always
// created — a disk error degrades durability, not delivery — and is
// reported alongside the assigned sequence number.
func (ob *outbox) add(round int, image []byte) (uint64, error) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	seq := ob.nextSeq + 1
	env, err := persist.AppendEnvelopeImage(nil, ob.leaf, round, seq, image)
	if err != nil {
		return 0, err
	}
	ob.nextSeq = seq
	ob.pending = append(ob.pending, outboxItem{seq: seq, round: round, env: env})
	if ob.dir == "" {
		return seq, nil
	}
	err = durable.WriteFile(ob.fs, ob.dir, envFileName(seq, outboxEnvSuffix), func(w io.Writer) error {
		_, err := w.Write(env)
		return err
	})
	if err != nil {
		return seq, fmt.Errorf("netserver: spooling round %d: %w", round, err)
	}
	// The new envelope is the durable witness now; the files it
	// supersedes go. Best-effort: a leftover holds a lower number, so it
	// cannot move the boot floor, and the next boot retires it again.
	ob.witness = seq
	for _, name := range ob.retired {
		ob.fs.Remove(filepath.Join(ob.dir, name))
	}
	ob.retired = ob.retired[:0]
	return seq, nil
}

func envFileName(seq uint64, suffix string) string {
	return fmt.Sprintf("%s%016x%s", outboxEnvPrefix, seq, suffix)
}

// first returns the oldest unshipped envelope, if any. The bytes are
// shipped verbatim; they stay owned by the outbox until ack.
func (ob *outbox) first() (outboxItem, bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if len(ob.pending) == 0 {
		return outboxItem{}, false
	}
	return ob.pending[0], true
}

// ack marks seq delivered: the entry leaves the outbox and so does its
// spool file, except that the durable witness of the sequence floor is
// renamed to .acked rather than deleted.
func (ob *outbox) ack(seq uint64) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for i := range ob.pending {
		if ob.pending[i].seq == seq {
			ob.pending = append(ob.pending[:i], ob.pending[i+1:]...)
			break
		}
	}
	if ob.dir == "" {
		return
	}
	// Best-effort and unsynced: a lost rename or removal leaves the
	// .lme1 file, which replays as a duplicate the root absorbs.
	path := filepath.Join(ob.dir, envFileName(seq, outboxEnvSuffix))
	if seq < ob.witness {
		ob.fs.Remove(path)
		return
	}
	acked := envFileName(seq, outboxAckedSuffix)
	ob.fs.Rename(path, filepath.Join(ob.dir, acked))
	ob.retired = append(ob.retired, acked)
}

// stats returns the unshipped count and the oldest unshipped round
// (-1 when empty) for /v1/status.
func (ob *outbox) stats() (int, int) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if len(ob.pending) == 0 {
		return 0, -1
	}
	return len(ob.pending), ob.pending[0].round
}

// seqHash seeds the shipper's deterministic jitter stream from the leaf
// identity (FNV-1a), so a fleet of leaves retrying the same outage
// spreads out instead of thundering in lockstep, while any single leaf's
// schedule stays reproducible.
func seqHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
