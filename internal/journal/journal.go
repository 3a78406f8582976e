// Package journal is LibShalom's tamper-evident request journal: an
// append-only, segment-rotated record of everything the serving front end
// admits and everything the self-healing runtime does while serving it —
// admitted requests (canonical wire header + payload SHA-256, optionally
// the payload itself), coalescer flushes, per-request results, and
// circuit-breaker transitions.
//
// Three properties drive the design:
//
//   - Tamper evidence. Records are grouped into batches, each batch is
//     anchored by a merkle root over its record payloads, and each root is
//     chained to the previous anchor (merkle.go). The 32-byte chain head
//     commits to every record ever written, so `shalom-journal verify`
//     detects any altered, dropped or reordered byte from one hash.
//   - Crash safety. Every record rides a CRC-32C frame (segment.go). A
//     torn tail — power cut mid-write — fails its CRC or its length and is
//     truncated on reopen; every fully-framed record before it survives,
//     and the chain resumes where it left off. The fsync policy knob
//     trades durability for latency (per-record, per-anchor, or none).
//   - Zero cost when disabled. The writer follows the telemetry contract:
//     a nil *Writer no-ops every method (enforced by shalom-vet's
//     nil-guard analyzer, with the allocations pinned by AllocsPerRun
//     tests), so a server configured without a journal performs zero
//     journal work and zero allocations on the admission path.
//
// On top of the journal sit forensics and reproduction: cmd/shalom-journal
// verifies and dumps segments, and `shalom-load -replay` re-issues a
// captured traffic segment with original arrival spacing, asserting
// bitwise-identical results — a breaker trip or latency cliff becomes an
// offline, repeatable experiment.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/telemetry"
)

// FsyncPolicy selects when the writer fsyncs its segment file.
type FsyncPolicy uint8

const (
	// FsyncAnchor (the default) fsyncs at every anchor — a crash loses at
	// most the current unanchored batch's durability, never its integrity.
	FsyncAnchor FsyncPolicy = iota
	// FsyncAlways fsyncs after every record.
	FsyncAlways
	// FsyncNone never fsyncs explicitly; the OS decides.
	FsyncNone
)

// String names the policy for status exposition and flags.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAnchor:
		return "anchor"
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("fsync-%d", uint8(p))
}

// ParseFsyncPolicy parses the -journal-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "anchor", "":
		return FsyncAnchor, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return FsyncAnchor, fmt.Errorf("journal: unknown fsync policy %q (want anchor, always, or none)", s)
}

// Options configures Open. Zero fields select the documented defaults.
type Options struct {
	// Dir is the journal directory; segments are seg-NNNNNNNN.shj inside
	// it. Required.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (checked at anchor boundaries). Default 8 MiB.
	SegmentBytes int64
	// Fsync is the durability policy. Default FsyncAnchor.
	Fsync FsyncPolicy
	// CapturePayloads stores each admitted request's operand payload in its
	// admit record — required for deterministic replay, off by default
	// (hash-only journaling for tamper evidence at minimal volume).
	CapturePayloads bool
	// Telemetry, when non-nil, counts appended records next to the serving
	// metrics. Anchors and sealed segments are in Writer.Status.
	Telemetry *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Writer is the journal appender. A nil *Writer is the disabled journal:
// every method no-ops (and Admit returns 0), so callers hold one field and
// never branch. All methods are safe for concurrent use.
type Writer struct {
	mu   sync.Mutex
	opts Options
	tel  *telemetry.Recorder
	// appended counts event records on Options.Telemetry.
	appended *telemetry.Counter

	f        *os.File
	segIndex uint64
	segBytes int64 // bytes appended to the current segment (incl. magic)

	seq        uint64     // next record sequence number
	chain      [32]byte   // chain head (after the last anchor)
	leaves     [][32]byte // record leaf hashes since the last anchor
	unanchored int

	records    uint64 // records appended over the writer's lifetime
	anchors    uint64
	sealed     uint64 // segments sealed
	truncated  int64  // torn-tail bytes dropped at Open
	lastAnchor time.Time
	dirtyBytes int64 // bytes appended since the last fsync
	firstDirty time.Time
	closed     bool
	err        error // sticky write error; the journal stops appending
}

// Open creates or reopens the journal in o.Dir. Reopening after a crash
// runs recovery on the newest segment: the torn tail (if any) is truncated,
// every fully-framed record survives, and the chain resumes from the last
// anchor with the surviving post-anchor records re-staged for the next one.
func Open(o Options) (*Writer, error) {
	o = o.withDefaults()
	if o.Dir == "" {
		return nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{opts: o, tel: o.Telemetry}
	w.appended = o.Telemetry.Counter("libshalom_journal_records_total", "Event records appended to the request journal.")
	paths, indices, err := Segments(o.Dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		if err := w.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := paths[len(paths)-1]
	res, err := scanSegment(last)
	if err != nil {
		return nil, err
	}
	n := len(res.records)
	if n > 0 && res.records[n-1].ev.Kind == KindAnchor && res.records[n-1].ev.Sealed && !res.torn() {
		// The newest segment is cleanly sealed: start the next one on its
		// chain head.
		w.seq = res.records[n-1].ev.Seq + 1
		w.chain = res.records[n-1].ev.Chain
		if err := w.openSegmentLocked(indices[len(indices)-1] + 1); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Recover the active (or crashed) segment: truncate the torn tail and
	// resume appending.
	if res.torn() {
		f, err := os.OpenFile(last, os.O_RDWR, 0)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(res.validEnd); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		w.truncated = res.fileSize - res.validEnd
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	w.f = f
	w.segIndex = indices[len(indices)-1]
	w.segBytes = res.validEnd
	for _, r := range res.records {
		if r.ev.Seq >= w.seq {
			w.seq = r.ev.Seq + 1
		}
		if r.ev.Kind == KindAnchor {
			w.chain = r.ev.Chain
			w.leaves = w.leaves[:0]
			w.unanchored = 0
			continue
		}
		// Segment header and event records are merkle leaves; surviving
		// post-anchor records re-stage for the next anchor.
		w.leaves = append(w.leaves, leafHash(r.payload))
		if r.ev.Kind != KindSegmentHeader {
			w.unanchored++
		}
	}
	if len(res.records) > 0 && res.records[0].ev.Kind == KindSegmentHeader {
		// The chain head at recovery is the last anchor's chain, or — when
		// the segment has no anchor yet — the header's inherited PrevChain.
		hasAnchor := false
		for _, r := range res.records {
			if r.ev.Kind == KindAnchor {
				hasAnchor = true
				break
			}
		}
		if !hasAnchor {
			w.chain = res.records[0].ev.PrevChain
		}
	}
	return w, nil
}

// Enabled reports whether the journal is live — the branch call sites use
// before paying for argument construction (encoding wire bytes, formatting
// class names).
//
//shalom:hotpath noalloc,nolock,noblock
func (w *Writer) Enabled() bool { return w != nil }

// Truncated reports how many torn-tail bytes Open dropped during recovery.
func (w *Writer) Truncated() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncated
}

// Admit journals one admitted request: t is the admission time (what replay
// paces on), header the canonical wire header JSON (no newline), payload
// the operand bytes. Returns the admit record's sequence number — the ID a
// later Result references — or 0 when the journal is disabled or failed.
func (w *Writer) Admit(t time.Time, header, payload []byte) uint64 {
	if w == nil {
		return 0
	}
	e := Event{Kind: KindAdmit, T: t.UnixNano(), Header: header, PayloadHash: sha256.Sum256(payload)}
	if w.opts.CapturePayloads {
		e.HasPayload = true
		e.Payload = payload
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&e)
}

// Result journals the terminal answer of an admitted request: admitSeq is
// the value Admit returned, status the HTTP status, batchSize how many
// requests shared the flush (200 only), resultHash the SHA-256 of the
// response payload bytes (zero for non-200 answers).
func (w *Writer) Result(admitSeq uint64, status, batchSize int, resultHash [32]byte) {
	if w == nil {
		return
	}
	e := Event{
		Kind: KindResult, T: time.Now().UnixNano(),
		AdmitSeq: admitSeq, Status: int32(status), BatchSize: uint32(batchSize),
		ResultHash: resultHash,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(&e)
}

// Flush journals one coalescer flush of size requests totalling flops work
// in class.
func (w *Writer) Flush(class string, size int, flops float64) {
	if w == nil {
		return
	}
	e := Event{Kind: KindFlush, T: time.Now().UnixNano(), Class: class, Size: uint32(size), Flops: flops}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(&e)
}

// Breaker journals one circuit-breaker transition.
func (w *Writer) Breaker(d guard.Degradation, from, to guard.State) {
	if w == nil {
		return
	}
	e := Event{
		Kind: KindBreaker, T: time.Now().UnixNano(),
		Platform: d.Platform, Kernel: d.Kernel,
		From: string(from), To: string(to),
		Reason: string(d.Reason), Detail: d.Detail, Shape: d.Shape,
		GuardSeq: d.Seq, Trips: uint32(d.Trips),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(&e)
}

// TunePromote journals one autotuner promotion: class gained a serving
// tuned tile (kernel identity, mr×nr tile, kc panel depth) whose modeled
// throughput is gflops.
func (w *Writer) TunePromote(platform, class, kernel string, mr, nr, kc int, gflops float64) {
	if w == nil {
		return
	}
	e := Event{
		Kind: KindTunePromote, T: time.Now().UnixNano(),
		Platform: platform, Class: class, Kernel: kernel,
		MR: uint32(mr), NR: uint32(nr), KC: uint32(kc), GFLOPS: gflops,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(&e)
}

// TuneRevert journals one autotuner revert: class fell back to the incumbent
// tile; detail carries the reason (breaker trip text or operator action).
func (w *Writer) TuneRevert(platform, class, kernel string, mr, nr, kc int, detail string) {
	if w == nil {
		return
	}
	e := Event{
		Kind: KindTuneRevert, T: time.Now().UnixNano(),
		Platform: platform, Class: class, Kernel: kernel, Detail: detail,
		MR: uint32(mr), NR: uint32(nr), KC: uint32(kc),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(&e)
}

// GuardObserver adapts the writer to guard.SetTransitionObserver, so every
// trip and close lands in the journal. Returns nil for a nil writer —
// passing that to SetTransitionObserver clears the hook.
func (w *Writer) GuardObserver() func(guard.Degradation, guard.State, guard.State) {
	if w == nil {
		return nil
	}
	return func(d guard.Degradation, from, to guard.State) { w.Breaker(d, from, to) }
}

// Anchor closes the current batch: it writes an anchor record committing to
// every record since the previous anchor, advances the chain, fsyncs under
// the anchor policy, and rotates the segment when it has outgrown
// Options.SegmentBytes. A no-op when nothing is unanchored.
func (w *Writer) Anchor() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.unanchored == 0 {
		return
	}
	w.anchorLocked(false)
}

// Close seals the journal: a final sealed anchor, an fsync, and the file
// handle released. Safe to call on a nil or already-closed writer.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.anchorLocked(true)
	w.closed = true
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.err
}

// Status is the journal's durability view, exposed on /healthz.
type Status struct {
	Dir string `json:"dir"`
	// Segment is the active segment index; SealedSegments how many have
	// been sealed over the writer's lifetime.
	Segment        uint64 `json:"segment"`
	SealedSegments uint64 `json:"sealed_segments"`
	// Records and Anchors count appends over the writer's lifetime;
	// Unanchored is the current batch not yet committed to the chain.
	Records    uint64 `json:"records"`
	Anchors    uint64 `json:"anchors"`
	Unanchored int    `json:"unanchored"`
	// ChainHead is the hex chain hash after the last anchor — the single
	// value that commits to the journal's whole history.
	ChainHead string `json:"chain_head"`
	// LastAnchorUnixNano is when the chain head last advanced (0: never).
	LastAnchorUnixNano int64 `json:"last_anchor_unix_nano,omitempty"`
	// Fsync is the active policy; DirtyBytes how many appended bytes are
	// not yet fsynced; FsyncLagMS how long the oldest of them has been
	// waiting (0 when clean).
	Fsync      string  `json:"fsync"`
	DirtyBytes int64   `json:"dirty_bytes"`
	FsyncLagMS float64 `json:"fsync_lag_ms"`
	// Err reports a sticky write failure; the journal has stopped
	// appending.
	Err string `json:"err,omitempty"`
}

// Status reports the journal's durability state; the zero Status for a nil
// writer.
func (w *Writer) Status() Status {
	if w == nil {
		return Status{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Status{
		Dir:            w.opts.Dir,
		Segment:        w.segIndex,
		SealedSegments: w.sealed,
		Records:        w.records,
		Anchors:        w.anchors,
		Unanchored:     w.unanchored,
		ChainHead:      hex.EncodeToString(w.chain[:]),
		Fsync:          w.opts.Fsync.String(),
		DirtyBytes:     w.dirtyBytes,
	}
	if !w.lastAnchor.IsZero() {
		s.LastAnchorUnixNano = w.lastAnchor.UnixNano()
	}
	if w.dirtyBytes > 0 && !w.firstDirty.IsZero() {
		s.FsyncLagMS = float64(time.Since(w.firstDirty).Microseconds()) / 1e3
	}
	if w.err != nil {
		s.Err = w.err.Error()
	}
	return s
}

// ChainHead returns the current chain head hash.
func (w *Writer) ChainHead() [32]byte {
	if w == nil {
		return [32]byte{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chain
}

// appendLocked encodes and frames e (assigning its sequence number),
// appends it to the segment, stages its merkle leaf, and applies the
// per-record fsync policy. Returns the assigned sequence number, or 0 after
// a sticky failure. Caller holds w.mu.
func (w *Writer) appendLocked(e *Event) uint64 {
	if w == nil {
		return 0
	}
	if w.err != nil || w.closed || w.f == nil {
		return 0
	}
	e.Seq = w.seq
	payload := encodeEvent(e)
	frame := frameBytes(payload)
	if faults.Fire(faults.JournalTornWrite) {
		w.tel.FaultInjected(faults.JournalTornWrite)
		// The injected crash: half the frame reaches the disk, then the
		// process "dies". The writer goes sticky-failed; reopen truncates.
		if len(frame) > 1 {
			_, _ = w.f.Write(frame[:len(frame)/2])
		}
		_ = w.f.Sync()
		w.err = fmt.Errorf("journal: %w", errInjectedTear)
		return 0
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return 0
	}
	w.seq++
	w.segBytes += int64(len(frame))
	w.leaves = append(w.leaves, leafHash(payload))
	if e.Kind != KindSegmentHeader {
		w.unanchored++
		w.records++
	}
	w.markDirtyLocked(int64(len(frame)))
	w.appended.Add(1)
	if w.opts.Fsync == FsyncAlways {
		w.fsyncLocked()
	}
	return e.Seq
}

// errInjectedTear marks the fault-injected mid-record crash.
var errInjectedTear = fmt.Errorf("injected torn write (faults.JournalTornWrite)")

// anchorLocked writes the anchor record for the staged batch (sealing the
// segment when seal is set), advances the chain, fsyncs per policy, and
// rotates an overgrown segment. Caller holds w.mu.
func (w *Writer) anchorLocked(seal bool) {
	if w == nil {
		return
	}
	if w.err != nil || w.closed || w.f == nil {
		return
	}
	rotate := !seal && w.segBytes >= w.opts.SegmentBytes
	root := merkleRoot(w.leaves)
	chain := chainNext(w.chain, root)
	e := Event{
		Kind: KindAnchor, Seq: w.seq, T: time.Now().UnixNano(),
		Count: uint32(w.unanchored), Root: root, Chain: chain,
		Sealed: seal || rotate,
	}
	payload := encodeEvent(&e)
	frame := frameBytes(payload)
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return
	}
	w.seq++
	w.segBytes += int64(len(frame))
	w.chain = chain
	w.leaves = w.leaves[:0]
	w.unanchored = 0
	w.anchors++
	w.lastAnchor = time.Now()
	w.markDirtyLocked(int64(len(frame)))
	if w.opts.Fsync != FsyncNone {
		w.fsyncLocked()
	}
	if e.Sealed {
		w.sealed++
	}
	if rotate {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
		if err := w.openSegmentLocked(w.segIndex + 1); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// openSegmentLocked creates segment index and writes its header record
// (inheriting the current chain head). Caller holds w.mu (or owns w
// exclusively during Open).
func (w *Writer) openSegmentLocked(index uint64) error {
	if w == nil {
		return fmt.Errorf("journal: nil writer")
	}
	path := filepath.Join(w.opts.Dir, segmentName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeMagic(f); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segIndex = index
	w.segBytes = int64(len(Magic))
	w.leaves = w.leaves[:0]
	w.unanchored = 0
	h := Event{
		Kind: KindSegmentHeader, Seq: w.seq, T: time.Now().UnixNano(),
		Version: Version, Segment: index, PrevChain: w.chain,
	}
	payload := encodeEvent(&h)
	frame := frameBytes(payload)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.seq++
	w.segBytes += int64(len(frame))
	w.leaves = append(w.leaves, leafHash(payload))
	w.markDirtyLocked(int64(len(frame)))
	if w.opts.Fsync != FsyncNone {
		w.fsyncLocked()
	}
	syncDir(w.opts.Dir)
	return nil
}

// markDirtyLocked accounts n appended-but-unsynced bytes.
func (w *Writer) markDirtyLocked(n int64) {
	if w == nil {
		return
	}
	if w.dirtyBytes == 0 {
		w.firstDirty = time.Now()
	}
	w.dirtyBytes += n
}

// fsyncLocked flushes the segment file under the active policy.
func (w *Writer) fsyncLocked() {
	if w == nil {
		return
	}
	if w.f == nil || w.dirtyBytes == 0 {
		return
	}
	if err := w.f.Sync(); err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.dirtyBytes = 0
	w.firstDirty = time.Time{}
}

// HashF32s returns the SHA-256 of v's little-endian wire bytes — the
// response-payload hash Result records for f32 requests.
func HashF32s(v []float32) [32]byte {
	h := sha256.New()
	var buf [512]byte
	i := 0
	for i < len(v) {
		n := 0
		for i < len(v) && n+4 <= len(buf) {
			binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(v[i]))
			n += 4
			i++
		}
		h.Write(buf[:n])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashF64s is HashF32s for f64 payloads.
func HashF64s(v []float64) [32]byte {
	h := sha256.New()
	var buf [512]byte
	i := 0
	for i < len(v) {
		n := 0
		for i < len(v) && n+8 <= len(buf) {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v[i]))
			n += 8
			i++
		}
		h.Write(buf[:n])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
