package dynamic

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// fakeTarget records the events RunTape applies and answers D from a
// script: d[i] after the i-th applied event, 0 before any.
type fakeTarget struct {
	applied []TapeEvent
	d       []float64
	step    func(TapeEvent) Step
	failAt  int // index of the applied event that errors (-1: none)
}

func (f *fakeTarget) Apply(_ context.Context, e TapeEvent) (Step, error) {
	if len(f.applied) == f.failAt {
		return Step{}, errors.New("fake failure")
	}
	f.applied = append(f.applied, e)
	if f.step != nil {
		return f.step(e), nil
	}
	return Step{}, nil
}

func (f *fakeTarget) D() float64 {
	if n := len(f.applied); n > 0 {
		return f.d[n-1]
	}
	return 0
}

func TestRunTape(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		// want is the applied tape; d scripts D after each applied event.
		want []TapeEvent
		d    []float64
		step func(TapeEvent) Step
		// check inspects the result beyond the applied tape.
		check func(t *testing.T, res ScenarioResult)
	}{
		{
			name: "equal times order leave < restart < kill < join < drift",
			sc: Scenario{
				Horizon: 10,
				Events: []Event{
					{Time: 5, Kind: Join, Client: 1},
					{Time: 5, Kind: Leave, Client: 2},
				},
				Kills:     []ServerKill{{Time: 5, Server: 3}, {Time: 1, Server: 4, RestartAt: 5}},
				Snapshots: []DriftSnapshot{{Time: 5}},
			},
			want: []TapeEvent{
				{Time: 1, Kind: TapeKill, ID: 4},
				{Time: 5, Kind: TapeLeave, ID: 2},
				{Time: 5, Kind: TapeRestart, ID: 4},
				{Time: 5, Kind: TapeKill, ID: 3},
				{Time: 5, Kind: TapeJoin, ID: 1},
				{Time: 5, Kind: TapeDrift, ID: 0},
			},
			d: []float64{0, 0, 0, 0, 0, 0},
			check: func(t *testing.T, res ScenarioResult) {
				if res.Joins != 1 || res.Leaves != 1 || res.KillsApplied != 2 || res.Restarts != 1 || res.DriftSteps != 1 {
					t.Fatalf("counters %+v", res)
				}
			},
		},
		{
			name: "event at the horizon runs, one past it is dropped",
			sc: Scenario{
				Horizon: 10,
				Events: []Event{
					{Time: 10, Kind: Join, Client: 0},
					{Time: 10.5, Kind: Leave, Client: 0},
				},
				Snapshots: []DriftSnapshot{{Time: 11}},
			},
			want: []TapeEvent{{Time: 10, Kind: TapeJoin, ID: 0}},
			d:    []float64{7},
			check: func(t *testing.T, res ScenarioResult) {
				if res.Leaves != 0 || res.DriftSteps != 0 || res.FinalD != 7 {
					t.Fatalf("post-horizon events counted: %+v", res)
				}
			},
		},
		{
			name: "restart at or after the horizon is never scheduled",
			sc: Scenario{
				Horizon: 10,
				Kills: []ServerKill{
					{Time: 2, Server: 0, RestartAt: 10},
					{Time: 3, Server: 1, RestartAt: 12},
					{Time: 4, Server: 2, RestartAt: 9.5},
					{Time: 5, Server: 3}, // permanent
				},
			},
			want: []TapeEvent{
				{Time: 2, Kind: TapeKill, ID: 0},
				{Time: 3, Kind: TapeKill, ID: 1},
				{Time: 4, Kind: TapeKill, ID: 2},
				{Time: 5, Kind: TapeKill, ID: 3},
				{Time: 9.5, Kind: TapeRestart, ID: 2},
			},
			d: []float64{0, 0, 0, 0, 0},
		},
		{
			name: "no-op kills and restarts are not counted, moves are",
			sc: Scenario{
				Horizon: 10,
				Kills:   []ServerKill{{Time: 1, Server: 0, RestartAt: 4}, {Time: 2, Server: 0}},
			},
			want: []TapeEvent{
				{Time: 1, Kind: TapeKill, ID: 0},
				{Time: 2, Kind: TapeKill, ID: 0},
				{Time: 4, Kind: TapeRestart, ID: 0},
			},
			d: []float64{0, 0, 0},
			step: func(e TapeEvent) Step {
				if e.Time == 2 {
					return Step{Noop: true, Repairs: 2}
				}
				return Step{Forced: 3, Repairs: 1}
			},
			check: func(t *testing.T, res ScenarioResult) {
				if res.KillsApplied != 1 || res.Restarts != 1 || res.ForcedMoves != 6 || res.RepairMoves != 4 {
					t.Fatalf("counters %+v", res)
				}
			},
		},
		{
			// ∫D dt over [0, 10] = 0·2 + 4·3 + 6·3 + 1·2 = 32.
			name: "TimeAvgD integral closed at the horizon",
			sc: Scenario{
				Horizon: 10,
				Events: []Event{
					{Time: 2, Kind: Join, Client: 0},
					{Time: 5, Kind: Join, Client: 1},
					{Time: 8, Kind: Leave, Client: 0},
				},
			},
			want: []TapeEvent{
				{Time: 2, Kind: TapeJoin, ID: 0},
				{Time: 5, Kind: TapeJoin, ID: 1},
				{Time: 8, Kind: TapeLeave, ID: 0},
			},
			d: []float64{4, 6, 1},
			check: func(t *testing.T, res ScenarioResult) {
				if res.TimeAvgD != 3.2 || res.MaxD != 6 || res.FinalD != 1 {
					t.Fatalf("TimeAvgD/MaxD/FinalD = %v/%v/%v, want 3.2/6/1", res.TimeAvgD, res.MaxD, res.FinalD)
				}
				want := []TimelinePoint{{2, 4}, {5, 6}, {8, 1}}
				if !reflect.DeepEqual(res.Timeline, want) {
					t.Fatalf("Timeline = %v, want %v", res.Timeline, want)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeTarget{d: tc.d, step: tc.step, failAt: -1}
			res, err := RunTape(context.Background(), ScenarioTape(&tc.sc), tc.sc.Horizon, f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(f.applied, tc.want) {
				t.Fatalf("applied %v, want %v", f.applied, tc.want)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// TestRunTapeStopsOnError: a target error ends the run and is returned
// as is.
func TestRunTapeStopsOnError(t *testing.T) {
	tape := []TapeEvent{{Time: 1, Kind: TapeJoin}, {Time: 2, Kind: TapeJoin, ID: 1}, {Time: 3, Kind: TapeLeave}}
	f := &fakeTarget{d: []float64{1, 2, 3}, failAt: 1}
	if _, err := RunTape(context.Background(), tape, 10, f); err == nil || err.Error() != "fake failure" {
		t.Fatalf("err = %v, want the target's failure", err)
	}
	if len(f.applied) != 1 {
		t.Fatalf("applied %d events after a failure, want 1", len(f.applied))
	}
}
