package bench

import "testing"

// TestScenariosEndToEnd runs one real scenario from each family at tiny
// scale — the integration guard for the fixtures → harness → result
// plumbing that the smoke suite exercises in CI.
func TestScenariosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario integration runs real pipelines")
	}
	opt := Options{Warmup: 1, Reps: 1}

	div, err := RunScenario(DivideScenario("labelprop", 50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if div.NsPerOp <= 0 || div.PhaseNs["division"] <= 0 {
		t.Errorf("divide scenario missing measurements: %+v", div)
	}

	pipe, err := RunScenario(PipelineScenario(50, 1.0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"training", "division", "aggregation", "combination"} {
		if pipe.PhaseNs[phase] <= 0 {
			t.Errorf("pipeline scenario missing phase %q: %+v", phase, pipe.PhaseNs)
		}
	}

	look, err := RunScenario(ServeLookupScenario(50, 50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if look.Latency == nil || look.Latency.Count != 50 || look.Latency.P99Ns <= 0 {
		t.Errorf("lookup scenario missing latency percentiles: %+v", look.Latency)
	}
	if look.OpsPerRep != 50 {
		t.Errorf("ops_per_rep = %d, want 50", look.OpsPerRep)
	}

	train, err := RunScenario(TrainCommCNNScenario(50, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if train.NsPerOp <= 0 || train.PhaseNs["training"] <= 0 {
		t.Errorf("train scenario missing measurements: %+v", train)
	}

	comb, err := RunScenario(CombineScenario(50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if comb.NsPerOp <= 0 || comb.PhaseNs["combination"] <= 0 || comb.Counts["epochs"] < 1 {
		t.Errorf("combine scenario missing measurements: %+v", comb)
	}

	// The planted teacher must make the fit converge: neither spend only
	// its patience on unlearnable labels nor count to the 100-epoch cap.
	lr, err := RunScenario(LogregTrainScenario(2048), opt)
	if err != nil {
		t.Fatal(err)
	}
	if e := lr.Counts["epochs"]; lr.NsPerOp <= 0 || e <= 4 || e >= 100 {
		t.Errorf("logreg train scenario ran %v epochs: %+v", e, lr)
	}

	load, err := RunScenario(ArtifactLoadScenario(50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if load.NsPerOp <= 0 {
		t.Errorf("artifact load scenario missing measurements: %+v", load)
	}

	cold, err := RunScenario(ServeColdStartScenario(50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.NsPerOp <= 0 {
		t.Errorf("cold start scenario missing measurements: %+v", cold)
	}
	// The whole point of the artifact store: restart ≪ retrain. Even at
	// n=50 the gap is wide; gate loosely to stay noise-immune.
	if pipe.NsPerOp > 0 && cold.NsPerOp > pipe.NsPerOp {
		t.Errorf("cold start (%f ns) slower than full training (%f ns)", cold.NsPerOp, pipe.NsPerOp)
	}

	if _, err := RunScenario(DivideScenario("nosuch", 50), opt); err == nil {
		t.Error("unknown detector accepted")
	}
}
