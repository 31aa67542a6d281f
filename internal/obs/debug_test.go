package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/telemetry"
)

// getBody fetches one endpoint from the server, asserting the status code.
func getBody(t *testing.T, d *DebugServer, path string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	records, expected := telemetry.RunProgress(reg)
	expected.Add(1000)
	records.Add(250)
	rec := events.NewRecorder(addr.Channels, 0)
	b := addr.PageNum(7).Block(0)
	rec.Channel(0).Emit(events.Event{Kind: events.KindIssue, Block: b, Origin: events.OriginSLP})
	rec.Channel(0).Emit(events.Event{Kind: events.KindFill, Block: b, Origin: events.OriginSLP})
	rec.Channel(0).Emit(events.Event{Kind: events.KindUsed, Block: b, Origin: events.OriginSLP})

	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{
		Telemetry: reg, Recorder: rec,
		Tool: "test", Workload: "CFM", Prefetcher: "planaria",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	index := getBody(t, d, "/", http.StatusOK)
	for _, want := range []string{"/progress", "/attrib", "/metrics", "/debug/pprof/"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %s", want)
		}
	}
	if strings.Contains(index, "/debug/vars") {
		t.Error("index still lists /debug/vars")
	}

	var prog struct {
		Tool string `json:"tool"`
		telemetry.Progress
	}
	if err := json.Unmarshal([]byte(getBody(t, d, "/progress", http.StatusOK)), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Tool != "test" || prog.Records != 250 || prog.Total != 1000 || prog.Fraction != 0.25 {
		t.Fatalf("progress %+v", prog)
	}

	var snap events.AttribSnapshot
	if err := json.Unmarshal([]byte(getBody(t, d, "/attrib", http.StatusOK)), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Origins) != 1 || snap.Origins[0].Origin != "slp" || snap.Origins[0].Used != 1 {
		t.Fatalf("attrib snapshot %+v", snap)
	}

	getBody(t, d, "/debug/vars", http.StatusNotFound)

	if body := getBody(t, d, "/debug/pprof/", http.StatusOK); !strings.Contains(body, "goroutine") {
		t.Error("pprof index not served")
	}

	getBody(t, d, "/nonexistent", http.StatusNotFound)
}

func TestDebugServerNilSources(t *testing.T) {
	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{Tool: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, path := range []string{"/progress", "/attrib", "/metrics", "/debug/vars"} {
		getBody(t, d, path, http.StatusNotFound)
	}
}

// TestDebugServerLiveRun exercises the real concurrency pattern under -race:
// channel workers emitting events and advancing the progress series while
// HTTP clients snapshot attribution, progress and metrics mid-run.
func TestDebugServerLiveRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	records, expected := telemetry.RunProgress(reg)
	expected.Add(int64(addr.Channels) * 5_000)
	rec := events.NewRecorder(addr.Channels, 64)
	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{Telemetry: reg, Recorder: rec, Tool: "live"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var producers sync.WaitGroup
	for ch := 0; ch < addr.Channels; ch++ {
		producers.Add(1)
		go func(ch int) { // one producer per channel, as the engine runs it
			defer producers.Done()
			sink := rec.Channel(ch)
			b := addr.PageNum(ch * 64).Block(0)
			for i := 0; i < 5_000; i++ {
				sink.Emit(events.Event{Kind: events.KindIssue, Cycle: uint64(i), Block: b, Origin: events.OriginTLP})
				if i%100 == 99 {
					records.Add(100)
				}
			}
			records.Add(5_000 % 100)
		}(ch)
	}
	readErr := make(chan error, 1)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() { // a client polling while the producers run
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/progress", "/attrib", "/metrics"} {
				resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr(), path))
				if err != nil {
					select {
					case readErr <- fmt.Errorf("GET %s: %w", path, err):
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
	}()
	producers.Wait()
	close(stop)
	<-polled
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
	if p := reg.Progress(time.Now()); p.Records != int64(addr.Channels)*5_000 || p.Fraction != 1 {
		t.Fatalf("progress %+v", p)
	}
	snap := rec.Attrib()
	var issued uint64
	for _, o := range snap.Origins {
		issued += o.Issued
	}
	if issued != uint64(addr.Channels)*5_000 {
		t.Fatalf("attributed %d issues, want %d", issued, uint64(addr.Channels)*5_000)
	}
	if snap.DroppedEvents == 0 {
		t.Fatal("64-slot rings under 5k events dropped nothing")
	}
}

func TestDebugServerCloseIdempotent(t *testing.T) {
	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.Close() // second close must not panic
	if _, err := http.Get(fmt.Sprintf("http://%s/", d.Addr())); err == nil {
		t.Fatal("server still serving after Close")
	}
}
