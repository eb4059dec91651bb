// Package statediff compares two values of one type field by field,
// exported or not, by reflection. It is the check behind the reset tests
// of the chip, the machine and the kernel: a reset object must equal a new
// one in every field, so a field its Reset forgets fails the test with no
// edit to it.
package statediff

import (
	"bytes"
	"fmt"
	"reflect"
)

// maxDiffs bounds the paths Diff reports.
const maxDiffs = 100

// Diff lists the paths at which got differs from want, at most 100 of them.
// want and got must be of one type, usually pointers to the two objects.
//
// Two rules make a reset object, which keeps its host storage, comparable
// with a new one, which has none:
//   - a nil pointer, slice or map matches a non-nil one that holds only
//     zero values, however deep (a table, page or record a reset kept and
//     cleared against none, an empty list against nil);
//   - two pointers to the same object are equal without a walk (the chip
//     under two machines over it), and a pair of pointers already being
//     walked is not walked again, so cycles end.
//
// Functions are equal when both are nil or both are the same code.
func Diff(want, got any) []string {
	d := &differ{seen: map[visit]bool{}}
	a, b := reflect.ValueOf(want), reflect.ValueOf(got)
	if a.Type() != b.Type() {
		return []string{fmt.Sprintf("types %s and %s", a.Type(), b.Type())}
	}
	root := a.Type()
	if root.Kind() == reflect.Pointer {
		root = root.Elem() // the walk adds the (*...) itself
	}
	d.walk(a, b, root.String())
	return d.diffs
}

// Same lists, by name, the fields in which the structs want and got point
// to do not differ: a reset test's check that the work it did before the
// reset dirtied every field, so that Diff can see one Reset forgets.
func Same(want, got any) []string {
	a, b := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	var same []string
	for i := 0; i < a.NumField(); i++ {
		d := &differ{seen: map[visit]bool{}}
		d.walk(a.Field(i), b.Field(i), "")
		if len(d.diffs) == 0 {
			same = append(same, a.Type().Field(i).Name)
		}
	}
	return same
}

type visit struct {
	a, b uintptr
	t    reflect.Type
}

type differ struct {
	diffs []string
	seen  map[visit]bool
}

func (d *differ) add(format string, args ...any) {
	d.diffs = append(d.diffs, fmt.Sprintf(format, args...))
}

func (d *differ) walk(a, b reflect.Value, path string) {
	if len(d.diffs) >= maxDiffs {
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if a.IsNil() || b.IsNil() {
			if !zero(a, map[uintptr]bool{}) || !zero(b, map[uintptr]bool{}) {
				d.add("%s: nil on one side only, and the other side is not zero", path)
			}
			return
		}
		if a.Kind() == reflect.Pointer {
			if a.Pointer() == b.Pointer() {
				return
			}
			v := visit{a.Pointer(), b.Pointer(), a.Type()}
			if d.seen[v] {
				return
			}
			d.seen[v] = true
			d.walk(a.Elem(), b.Elem(), "(*"+path+")")
			return
		}
		if a.Len() != b.Len() {
			d.add("%s: length %d, want %d", path, b.Len(), a.Len())
			return
		}
		if a.Kind() == reflect.Map {
			for it := a.MapRange(); it.Next(); {
				bv := b.MapIndex(it.Key())
				if !bv.IsValid() {
					d.add("%s[%v]: missing", path, it.Key())
					continue
				}
				d.walk(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()))
			}
			return
		}
		d.elems(a, b, path)
	case reflect.Array:
		d.elems(a, b, path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			d.walk(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.add("%s: nil on one side only", path)
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			d.add("%s: a %s, want a %s", path, b.Elem().Type(), a.Elem().Type())
			return
		}
		d.walk(a.Elem(), b.Elem(), path)
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			d.add("%s: %s %#x, want %#x", path, a.Kind(), b.Pointer(), a.Pointer())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.add("%s: %v, want %v", path, b.Bool(), a.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.add("%s: %d, want %d", path, b.Int(), a.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.add("%s: %d, want %d", path, b.Uint(), a.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			d.add("%s: %v, want %v", path, b.Float(), a.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.add("%s: %q, want %q", path, b.String(), a.String())
		}
	default:
		d.add("%s: a %s field, which this walk cannot compare", path, a.Kind())
	}
}

// elems compares the elements of two arrays or two slices of one length,
// bytes in one step.
func (d *differ) elems(a, b reflect.Value, path string) {
	if a.Type().Elem().Kind() == reflect.Uint8 && (a.Kind() == reflect.Slice || a.CanAddr() && b.CanAddr()) {
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			d.add("%s: bytes differ", path)
		}
		return
	}
	for i := 0; i < a.Len(); i++ {
		d.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
	}
}

// zero reports whether v holds only zero values: nil, or pointing to or
// holding nothing but zeros, however deep. seen holds the pointers on the
// way to v, so a cycle ends.
func zero(v reflect.Value, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return true
		}
		seen[v.Pointer()] = true
		return zero(v.Elem(), seen)
	case reflect.Slice:
		if v.IsNil() {
			return true
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return bytes.Count(v.Bytes(), []byte{0}) == v.Len()
		}
		fallthrough
	case reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Struct, reflect.Array:
		default:
			if v.Kind() == reflect.Array {
				return v.IsZero()
			}
		}
		for i := 0; i < v.Len(); i++ {
			if !zero(v.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Map:
		return v.Len() == 0
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !zero(v.Field(i), seen) {
				return false
			}
		}
		return true
	}
	return v.IsZero()
}
