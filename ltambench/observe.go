package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/wire/frame"
)

// Observer is one binary POST /v1/stream/observe connection. Unlike the
// repository's client it reports the arrival time of every cumulative
// ack, so each frame's ack latency is exact: OnAck runs on the ack
// reader goroutine for the frames in (prev, acked].
type Observer struct {
	pw  *io.PipeWriter
	bw  *bufio.Writer
	enc []byte

	mu    sync.Mutex
	cond  *sync.Cond
	last  stream.Ack
	err   error
	ended bool

	done  chan struct{}
	OnAck func(prev, acked uint64, at time.Time)
}

// OpenObserver starts the ingest stream on its own HTTP connection.
func OpenObserver(ctx context.Context, base string, onAck func(prev, acked uint64, at time.Time)) (*Observer, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/stream/observe", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", frame.ContentType)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := client.Do(req)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("open ingest stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), frame.ContentType) {
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("open ingest stream: HTTP %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	o := &Observer{pw: pw, bw: bufio.NewWriterSize(pw, 64<<10), done: make(chan struct{}), OnAck: onAck}
	o.cond = sync.NewCond(&o.mu)
	go o.readAcks(resp.Body)
	return o, nil
}

func (o *Observer) readAcks(body io.ReadCloser) {
	defer close(o.done)
	defer body.Close()
	fr := frame.NewRawReader(bufio.NewReader(body))
	defer fr.Release()
	fail := func(err error) {
		o.mu.Lock()
		o.err, o.ended = err, true
		o.mu.Unlock()
		o.cond.Broadcast()
	}
	for {
		raw, err := fr.Next()
		if err != nil {
			fail(fmt.Errorf("ack stream ended without a final ack: %w", err))
			return
		}
		var a stream.Ack
		if err := frame.DecodeAck(raw, &a); err != nil {
			fail(fmt.Errorf("bad ack: %w", err))
			return
		}
		at := time.Now()
		o.mu.Lock()
		prev := o.last.Acked
		o.last = a
		if a.Final {
			o.ended = true
			if a.Error != "" {
				o.err = errors.New(a.Error)
			}
		}
		o.mu.Unlock()
		if o.OnAck != nil && a.Acked > prev {
			o.OnAck(prev, a.Acked, at)
		}
		o.cond.Broadcast()
		if a.Final {
			return
		}
	}
}

// Send encodes one reading frame into the write buffer.
func (o *Observer) Send(f *stream.ObserveFrame) error {
	out, err := frame.AppendObserve(o.enc[:0], f)
	if err != nil {
		return err
	}
	o.enc = out
	_, err = o.bw.Write(out)
	return err
}

// Flush pushes buffered frames onto the connection.
func (o *Observer) Flush() error { return o.bw.Flush() }

// Acked is the latest cumulative ack count.
func (o *Observer) Acked() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.last.Acked
}

// WaitAcked blocks until the first n frames are acked, the stream
// fails, or the timeout passes.
func (o *Observer) WaitAcked(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, o.cond.Broadcast)
	defer timer.Stop()
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.last.Acked < n {
		if o.ended {
			if o.err != nil {
				return o.err
			}
			return fmt.Errorf("stream ended at %d acked frames, want %d", o.last.Acked, n)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("acks stalled at %d of %d", o.last.Acked, n)
		}
		o.cond.Wait()
	}
	return nil
}

// Close sends the End frame and returns the final cumulative ack.
func (o *Observer) Close() (stream.Ack, error) {
	werr := o.Send(&stream.ObserveFrame{End: true})
	if werr == nil {
		werr = o.bw.Flush()
	}
	if werr != nil {
		o.pw.CloseWithError(werr)
	} else {
		o.pw.Close()
	}
	<-o.done
	o.mu.Lock()
	defer o.mu.Unlock()
	if werr != nil {
		return o.last, werr
	}
	return o.last, o.err
}

// Abort tears the connection down (error paths).
func (o *Observer) Abort() {
	o.pw.CloseWithError(errors.New("aborted"))
	<-o.done
}
