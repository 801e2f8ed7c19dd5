package alpha
