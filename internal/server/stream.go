package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"greencell/internal/metrics"
)

// recordLog is the in-memory, append-only metrics stream of one job: a
// metrics.RecordWriter that keeps every record as its encoded JSON line so
// HTTP consumers can replay and follow the stream live. Lines are encoded
// exactly as metrics.JSONLWriter would emit them (json.Marshal plus a
// newline — the same bytes as json.Encoder.Encode), so a streamed job is
// byte-identical to a local `sim.Run` with an attached Recorder; the
// serve-smoke gate diffs the two against the golden fixture.
//
// Writers (the job's Recorder, single-goroutine) and any number of stream
// readers synchronize on mu; readers park on the wake channel, which is
// closed and replaced on every append.
type recordLog struct {
	mu     sync.Mutex
	wake   chan struct{}
	lines  []streamLine
	closed bool
}

// streamLine is one encoded record. slot is the slot number for slot
// records and negative for the header (-1) and summary (-2), which are
// always streamed regardless of any from_slot resume point.
type streamLine struct {
	slot int
	data []byte
}

func newRecordLog() *recordLog {
	return &recordLog{wake: make(chan struct{})}
}

// errLogClosed reports a write after Close — a Recorder misuse.
var errLogClosed = errors.New("server: record log closed")

func (l *recordLog) append(slot int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	l.lines = append(l.lines, streamLine{slot: slot, data: append(data, '\n')})
	close(l.wake)
	l.wake = make(chan struct{})
	return nil
}

// WriteHeader implements metrics.RecordWriter.
func (l *recordLog) WriteHeader(h metrics.Header) error {
	return l.append(-1, metrics.NewHeader(h))
}

// WriteSlot implements metrics.RecordWriter.
func (l *recordLog) WriteSlot(r *metrics.SlotRecord) error {
	r.Type = "slot"
	return l.append(r.Slot, r)
}

// WriteSummary implements metrics.RecordWriter.
func (l *recordLog) WriteSummary(s metrics.Summary) error {
	s.Type = "summary"
	return l.append(-2, s)
}

// Close implements metrics.RecordWriter; it never fails.
func (l *recordLog) Close() error {
	l.end()
	return nil
}

// end ends the stream, releasing every follower once it has replayed the
// remaining lines. Ending twice is harmless (the job teardown path and
// the Recorder both close).
func (l *recordLog) end() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.wake)
	}
}

// stream replays the log into w from its beginning — skipping slot records
// below fromSlot — and then follows live appends until the log closes, the
// context is cancelled, or a write fails. Each batch is flushed so HTTP
// consumers see slots as they are simulated.
func (l *recordLog) stream(ctx context.Context, w io.Writer, fromSlot int) error {
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		l.mu.Lock()
		batch := l.lines[next:]
		next = len(l.lines)
		closed := l.closed
		wake := l.wake
		l.mu.Unlock()

		wrote := false
		for _, line := range batch {
			if line.slot >= 0 && line.slot < fromSlot {
				continue
			}
			if _, err := w.Write(line.data); err != nil {
				return err
			}
			wrote = true
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
		if closed {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
	}
}
