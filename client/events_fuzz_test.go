package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"pubtac"
)

// streamTransport answers every request with a 200 text/event-stream whose
// body is the stream, so Events parses it with no server.
type streamTransport []byte

func (s streamTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(bytes.NewReader(s)),
		Request:    r,
	}, nil
}

// sseFrame is one dispatched frame of an event stream.
type sseFrame struct {
	event string
	data  string
}

// sseFrames reads a stream the way the SSE format defines it: lines end at
// "\n" (a "\r" before it is dropped), a blank line closes a frame, the
// frame's event is its last "event:" field and its data the concatenation
// of its "data:" fields, each trimmed. Lines of other fields are ignored,
// and so is a frame the stream ends before closing.
func sseFrames(stream string) []sseFrame {
	lines := strings.Split(stream, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the final "\n" ends a line, it opens none
	}
	var frames []sseFrame
	var cur sseFrame
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		if v, ok := strings.CutPrefix(line, "event:"); ok {
			cur.event = strings.TrimSpace(v)
		} else if v, ok := strings.CutPrefix(line, "data:"); ok {
			cur.data += strings.TrimSpace(v)
		} else if line == "" {
			frames = append(frames, cur)
			cur = sseFrame{}
		}
	}
	return frames
}

// FuzzEvents feeds fuzzed bytes to Client.Events as a job's event stream.
// Events never panics; it returns nil exactly when a done frame arrives
// before any error frame; an error frame's message appears in the returned
// error; a stream that ends without a terminal frame is an error; and every
// progress frame before the terminal one reaches the callback. Streams of
// 1 MiB or more are skipped: a line that long exceeds the parser's line cap.
func FuzzEvents(f *testing.F) {
	recorded, err := os.ReadFile("testdata/events_bs.sse")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add([]byte("event: progress\ndata: {\"Phase\":\"campaign\",\"Done\":64,\"Target\":200}\n\nevent: error\ndata: {\"error\":\"campaign cancelled\",\"key\":\"ab\"}\n\n"))
	f.Add(recorded[:len(recorded)/2])
	f.Add([]byte("event: progress\ndata: {\"Note\":\"" + strings.Repeat("x", 70<<10) + "\"}\n\nevent: done\ndata: {}\n\n"))

	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) >= 1<<20 {
			return
		}
		progress := 0
		got := New("http://worker", WithTransport(streamTransport(stream))).Events(context.Background(), "job",
			func(pubtac.ProgressEvent) { progress++ })

		// The stream ends at its first terminal frame: done, error, or a
		// progress frame whose data does not decode.
		terminal, frames := "", 0
		var data string
		for _, fr := range sseFrames(string(stream)) {
			if fr.event == "progress" {
				if json.Unmarshal([]byte(fr.data), new(pubtac.ProgressEvent)) == nil {
					frames++
					continue
				}
			} else if fr.event != "done" && fr.event != "error" {
				continue
			}
			terminal, data = fr.event, fr.data
			break
		}
		if (got == nil) != (terminal == "done") {
			t.Fatalf("%q: Events returned %v, but the first terminal frame is %q", stream, got, terminal)
		}
		if terminal == "error" {
			var msg struct {
				Error string `json:"error"`
			}
			if json.Unmarshal([]byte(data), &msg) == nil && !strings.Contains(got.Error(), msg.Error) {
				t.Fatalf("%q: error frame %q, Events returned %v", stream, msg.Error, got)
			}
		}
		if progress != frames {
			t.Fatalf("%q: %d progress events delivered, %d before the terminal frame", stream, progress, frames)
		}
	})
}
