// Package server exercises the lockorder analyzer.
package server

import "sync"

type decoder interface {
	Decode(p []byte) (int, error)
}

type stream struct {
	mu   sync.RWMutex
	dec  decoder
	subs []chan int
	cb   func(int)
}

type shard struct {
	mu sync.Mutex
}

func (s *stream) decodeUnderShardLock(sh *shard, p []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.dec.Decode(p) // want "Decoder.Decode while holding sh.mu exclusively"
}

func (s *stream) decodeUnderRLock(p []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.dec.Decode(p) // ok: shared stream lock
}

func (s *stream) decodeOutside(sh *shard, p []byte) {
	sh.mu.Lock()
	sh.mu.Unlock()
	s.dec.Decode(p) // ok: lock already released
}

func (s *stream) decodeMarkedSafe(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dec.Decode(p) //loloha:locksafe construction-time decode, nothing concurrent yet
}

func (s *stream) sendUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		sub <- v // want "channel send on sub while holding s.mu"
	}
}

func (s *stream) guardedSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		if len(sub) == cap(sub) {
			continue
		}
		sub <- v // ok: occupancy-guarded, cannot block
	}
}

func (s *stream) callbackUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cb(v) // want "call through a function value"
}

func (s *stream) callbackOutside(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.cb(v) // ok: released before the callback
}

func inversion(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "inverts the stream-before-shard lock order"
	b.mu.Unlock()
	a.mu.Unlock()
}

func (s *stream) shardUnderStream(sh *shard) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh.mu.Lock() // ok: stream-before-shard is the canonical order
	sh.mu.Unlock()
}

func (s *stream) reacquire() {
	s.mu.Lock()
	s.mu.Lock() // want "already held; re-acquiring self-deadlocks"
	s.mu.Unlock()
}

func (s *stream) publishLocked(v int) {
	for _, sub := range s.subs {
		sub <- v // want "channel send on sub while holding s.mu"
	}
}

func (s *stream) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		close(sub) // ok: close never blocks
	}
}
