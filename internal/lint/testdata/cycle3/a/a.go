// Package a opens a deliberate three-package import cycle (a → b → c → a),
// which the loader must report as an error whichever package it starts at.
package a

import "cycle3mod/b"

// A calls into b.
func A() int { return b.B() }
