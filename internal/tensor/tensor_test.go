package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestTensorIndexing(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("size = %d", x.Size())
	}
	x.Set(1, 2, 3, 42)
	if x.At(1, 2, 3) != 42 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Idx(1, 2, 3) != 23 {
		t.Fatalf("Idx = %d, want 23", x.Idx(1, 2, 3))
	}
	c := x.Clone()
	c.Set(0, 0, 0, 7)
	if x.At(0, 0, 0) == 7 {
		t.Fatal("Clone aliases original")
	}
	x.Zero()
	if x.At(1, 2, 3) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestFromMatrixCopies(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	tt := FromMatrix(m)
	if tt.C != 1 || tt.H != 2 || tt.W != 3 || tt.At(0, 1, 2) != 5 {
		t.Fatalf("FromMatrix shape/content wrong: %+v", tt)
	}
	tt.Set(0, 0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("FromMatrix aliases matrix data")
	}
}

func TestAddScaled(t *testing.T) {
	a := NewTensor(1, 1, 3)
	b := NewTensor(1, 1, 3)
	copy(a.Data, []float64{1, 2, 3})
	copy(b.Data, []float64{1, 1, -10})
	a.AddScaled(b, 2)
	want := []float64{3, 4, -17}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AddScaled = %v, want %v", a.Data, want)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1000, 1000, 1000}, out)
	for _, v := range out {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("uniform softmax = %v", out)
		}
	}
	Softmax([]float64{-1000, 0, 1000}, out)
	if out[2] < 0.999 || math.IsNaN(out[0]) {
		t.Fatalf("extreme softmax = %v", out)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
	if ArgMax([]float64{1, 3, 3, 2}) != 1 {
		t.Fatal("ArgMax should return first maximal index")
	}
}

func TestRandInitDeterministic(t *testing.T) {
	a := make([]float64, 10)
	b := make([]float64, 10)
	RandInit(a, 0.5, rand.New(rand.NewSource(4)))
	RandInit(b, 0.5, rand.New(rand.NewSource(4)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandInit not deterministic for equal seeds")
		}
	}
}
