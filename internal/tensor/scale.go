package tensor

import (
	"fmt"
	"sort"

	"cinnamon/internal/ckks"
)

// scaleExpr is a symbolic CKKS scale: Δ^dPow · Π q_num / Π q_den, where
// each entry of num/den is a level offset o naming the modulus
// q_{inLevel-o} of the chain the value entered at level inLevel. Keeping
// scales symbolic lets Compile derive plaintext encoding scales that
// land every tensor value back on exactly Δ without knowing the
// parameter set, and lets the registry evaluate the same expression to
// bit-identical float64 scales at whatever level a program enters.
type scaleExpr struct {
	dPow int
	num  []int
	den  []int
}

func deltaExpr() scaleExpr { return scaleExpr{dPow: 1} }

// qExpr is the modulus consumed by a rescale at level offset off.
func qExpr(off int) scaleExpr { return scaleExpr{num: []int{off}} }

func (s scaleExpr) canon() scaleExpr {
	num := append([]int(nil), s.num...)
	den := append([]int(nil), s.den...)
	sort.Ints(num)
	sort.Ints(den)
	// Cancel common factors.
	outN, outD := num[:0], den[:0]
	i, j := 0, 0
	for i < len(num) && j < len(den) {
		switch {
		case num[i] == den[j]:
			i++
			j++
		case num[i] < den[j]:
			outN = append(outN, num[i])
			i++
		default:
			outD = append(outD, den[j])
			j++
		}
	}
	outN = append(outN, num[i:]...)
	outD = append(outD, den[j:]...)
	return scaleExpr{dPow: s.dPow, num: outN, den: outD}
}

func (s scaleExpr) mul(t scaleExpr) scaleExpr {
	return scaleExpr{
		dPow: s.dPow + t.dPow,
		num:  append(append([]int(nil), s.num...), t.num...),
		den:  append(append([]int(nil), s.den...), t.den...),
	}.canon()
}

func (s scaleExpr) div(t scaleExpr) scaleExpr {
	return scaleExpr{
		dPow: s.dPow - t.dPow,
		num:  append(append([]int(nil), s.num...), t.den...),
		den:  append(append([]int(nil), s.den...), t.num...),
	}.canon()
}

// divQ is the effect of a rescale performed at level offset off.
func (s scaleExpr) divQ(off int) scaleExpr { return s.div(qExpr(off)) }

func (s scaleExpr) equal(t scaleExpr) bool {
	a, b := s.canon(), t.canon()
	if a.dPow != b.dPow || len(a.num) != len(b.num) || len(a.den) != len(b.den) {
		return false
	}
	for i := range a.num {
		if a.num[i] != b.num[i] {
			return false
		}
	}
	for i := range a.den {
		if a.den[i] != b.den[i] {
			return false
		}
	}
	return true
}

// eval resolves the expression against a parameter set for a value chain
// entered at inLevel. A level too low to hold every modulus the expression
// names (below the program's depth) or above the chain is an error.
func (s scaleExpr) eval(params *ckks.Parameters, inLevel int) (float64, error) {
	v := 1.0
	for i := 0; i < s.dPow; i++ {
		v *= params.DefaultScale()
	}
	for i := 0; i > s.dPow; i-- {
		v /= params.DefaultScale()
	}
	modulus := func(o int) (float64, error) {
		l := inLevel - o
		if l < 0 || l > params.MaxLevel() {
			return 0, fmt.Errorf("tensor: scale names the modulus at level %d, outside the chain [0,%d] for an input at level %d", l, params.MaxLevel(), inLevel)
		}
		return float64(params.QBasis.Moduli[l]), nil
	}
	for _, o := range s.num {
		q, err := modulus(o)
		if err != nil {
			return 0, err
		}
		v *= q
	}
	for _, o := range s.den {
		q, err := modulus(o)
		if err != nil {
			return 0, err
		}
		v /= q
	}
	return v, nil
}
