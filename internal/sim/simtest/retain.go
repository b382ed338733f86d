// Package simtest holds test helpers shared by the simulators' tests.
package simtest

import (
	"fmt"
	"reflect"
	"strings"
	"unsafe"
)

// Retained walks everything reachable from root — pointers, slices up
// to their capacity, maps, interfaces and struct fields, unexported
// ones included — and describes each place that holds on to a run:
// a non-zero struct or interface of a type from one of the packages
// named in astPkgs, a
// string that points into one of texts, or a non-nil func other than
// those at the field paths in funcs. A func is reported by path only,
// since a closure's captures cannot be walked.
func Retained(root any, astPkgs, texts []string, funcs ...string) []string {
	w := walker{astPkgs: astPkgs, texts: texts, funcs: funcs, seen: map[uintptr]bool{}}
	w.walk(reflect.ValueOf(root), "root")
	return w.found
}

type walker struct {
	astPkgs, texts, funcs []string
	seen                  map[uintptr]bool
	found                 []string
}

func (w *walker) walk(v reflect.Value, path string) {
	if k := v.Kind(); k == reflect.Struct || k == reflect.Interface {
		for _, p := range w.astPkgs {
			if v.Type().PkgPath() == p && !v.IsZero() {
				w.found = append(w.found, fmt.Sprintf("%s: %v", path, v.Type()))
				return
			}
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			w.walk(full.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key(), path+"{key}")
			w.walk(it.Value(), path+"{value}")
		}
	case reflect.String:
		s := v.String()
		if s == "" {
			return
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, t := range w.texts {
			if start := uintptr(unsafe.Pointer(unsafe.StringData(t))); p >= start && p < start+uintptr(len(t)) {
				w.found = append(w.found, fmt.Sprintf("%s: string %q from a source text", path, s))
			}
		}
	case reflect.Func:
		if v.IsNil() {
			return
		}
		for _, f := range w.funcs {
			if strings.HasSuffix(path, f) {
				return
			}
		}
		w.found = append(w.found, path+": func")
	}
}
