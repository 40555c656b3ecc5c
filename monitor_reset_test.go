package blinkradar_test

import (
	"reflect"
	"testing"

	"blinkradar"
)

// monitorRun feeds every frame of a capture through m and returns the
// blink events and window assessments it delivered, in order.
func monitorRun(t *testing.T, m *blinkradar.Monitor, c *blinkradar.Capture) ([]blinkradar.BlinkEvent, []blinkradar.Assessment) {
	t.Helper()
	var events []blinkradar.BlinkEvent
	var assessments []blinkradar.Assessment
	for _, frame := range c.Frames.Data {
		ev, ok, a, err := m.Feed(frame)
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		if ok {
			events = append(events, ev)
		}
		if a != nil {
			assessments = append(assessments, *a)
		}
	}
	return events, assessments
}

// TestResetMonitorMatchesFresh is the session pool's contract: a
// Monitor that served one stream and was Reset must serve the next
// stream exactly as a newly built Monitor would. A recycled tracker that
// kept its fit count blended its first fits at the settled damping and
// diverged from the fresh reference.
func TestResetMonitorMatchesFresh(t *testing.T) {
	fixtures := loadGolden(t)
	used := goldenCapture(t, fixtures[0])
	next := goldenCapture(t, fixtures[len(fixtures)-1])
	bins, rate := next.Frames.NumBins(), next.Frames.FrameRate
	if used.Frames.NumBins() != bins || used.Frames.FrameRate != rate {
		t.Fatalf("fixtures differ in geometry: %d bins at %g fps vs %d at %g",
			used.Frames.NumBins(), used.Frames.FrameRate, bins, rate)
	}
	const windowSec = 30
	fresh, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), bins, rate, windowSec)
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), bins, rate, windowSec)
	if err != nil {
		t.Fatal(err)
	}
	monitorRun(t, recycled, used)
	recycled.Reset()

	wantEv, wantA := monitorRun(t, fresh, next)
	gotEv, gotA := monitorRun(t, recycled, next)
	if len(wantEv) == 0 {
		t.Fatal("reference monitor detected no blinks; the comparison is vacuous")
	}
	if !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("recycled monitor delivered %d events, fresh monitor %d; first differing events:\n got  %v\n want %v",
			len(gotEv), len(wantEv), firstDiff(gotEv, wantEv), firstDiff(wantEv, gotEv))
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("recycled monitor delivered %d assessments, fresh monitor %d, and they differ", len(gotA), len(wantA))
	}
}

// firstDiff returns a's first event that differs from b at the same
// index (or the first event past b's end).
func firstDiff(a, b []blinkradar.BlinkEvent) []blinkradar.BlinkEvent {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return a[i : i+1]
		}
	}
	return nil
}
