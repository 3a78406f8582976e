package server

import (
	"testing"

	"libshalom"
)

// Hold marks the class of requests shaped like h busy, as if a flush of it
// were running, so the class's requests queue instead of flushing on
// arrival. MaxBatch, MaxBatchFlops and Drain still flush the held queue.
// The returned release ends the hold the way a flush ends: the requests
// that queued meanwhile leave as the next batch, or the class goes idle.
// The class must be idle when Hold is called.
func (s *Server) Hold(t testing.TB, h Header) (release func()) {
	t.Helper()
	mode, err := libshalom.ParseMode(h.Mode)
	if err != nil {
		t.Fatalf("Hold: %v", err)
	}
	q := s.co.class(classKey{f64: h.Precision == "f64", mode: mode, class: libshalom.ClassifyShape(h.M, h.N, h.K)})
	q.mu.Lock()
	busy := q.busy
	q.busy = true
	q.mu.Unlock()
	if busy {
		t.Fatalf("Hold: class %v is already busy", q.key)
	}
	return func() {
		s.co.flushes.Add(1)
		go s.co.loop(q, s.co.flushEnded(q))
	}
}
